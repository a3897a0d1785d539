package main

import (
	"fmt"
	"runtime"
	"time"

	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	pipmcore "pipm/internal/core"
	"pipm/internal/cxl"
	"pipm/internal/harness"
	"pipm/internal/machine"
	"pipm/internal/mem"
	"pipm/internal/migration"
	"pipm/internal/stats"
)

// execution is one run driven through the machine layer.
type execution struct {
	res   harness.Result
	err   error
	setup time.Duration // CPU time of machine.New plus reader construction
	sim   simCounters
}

// simCounters are the modelled machine's counters behind a Result, read
// through the machine's public accessors after Run.
type simCounters struct {
	served          [stats.NumClasses]uint64
	interStall      float64
	cxlBytes        uint64
	cxlBG           uint64
	localRemapHits  uint64
	localRemapLooks uint64
	globalHits      uint64
	globalLooks     uint64
	promotions      uint64
	linesMoved      uint64
}

func (c *simCounters) add(o simCounters) {
	for i := range c.served {
		c.served[i] += o.served[i]
	}
	c.interStall += o.interStall
	c.cxlBytes += o.cxlBytes
	c.cxlBG += o.cxlBG
	c.localRemapHits += o.localRemapHits
	c.localRemapLooks += o.localRemapLooks
	c.globalHits += o.globalHits
	c.globalLooks += o.globalLooks
	c.promotions += o.promotions
	c.linesMoved += o.linesMoved
}

// execute builds, feeds and runs one machine, recording spans under parent
// when tr is non-nil.
func execute(r runSpec, tr *tracer, parent int) execution {
	if err := r.wl.Validate(); err != nil {
		return execution{err: err}
	}
	c0 := cpuTime()
	sp := tr.start(r.id(), "machine.new", parent)
	m, err := machine.New(r.cfg, r.scheme)
	tr.end(sp)
	if err != nil {
		return execution{err: err}
	}
	sp = tr.start(r.id(), "workload.readers", parent)
	am := m.AddressMap()
	for h := 0; h < r.cfg.Hosts; h++ {
		for c := 0; c < r.cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, r.wl.NewReader(am, r.cfg.Hosts, h, c, r.records, r.seed))
		}
	}
	tr.end(sp)
	setup := cpuTime() - c0
	sp = tr.start(r.id(), "machine.run", parent)
	err = m.Run()
	tr.end(sp)
	if err != nil {
		return execution{err: err, setup: setup}
	}
	sp = tr.start(r.id(), "harness.result", parent)
	res, sc := resultOf(m, r)
	tr.end(sp)
	return execution{res: res, setup: setup, sim: sc}
}

// resultOf assembles the harness Result of a finished machine exactly as
// harness.RunOneOpts does; the golden digests, checked at seed 1, hold the
// two in step.
func resultOf(m *machine.Machine, r runSpec) (harness.Result, simCounters) {
	cfg := r.cfg
	col := m.Stats()
	sharedPages := float64(cfg.SharedPages())
	res := harness.Result{
		Workload:          r.wl.Name,
		Scheme:            r.scheme,
		ExecTime:          m.ExecTime(),
		IPC:               m.IPC(),
		Instructions:      col.Instructions(),
		LocalHitRate:      col.LocalHitRate(),
		InterStallFrac:    col.StallFraction(stats.ClassInterHost),
		MgmtStallFrac:     col.MgmtFraction(),
		TransferFrac:      col.TransferFraction(),
		HarmfulFrac:       m.HarmfulFraction(),
		PageFootprintFrac: col.MeanPageFootprint() / sharedPages,
		LineFootprintFrac: col.MeanLineFootprint() / (sharedPages * config.LinesPerPage),
		Promotions:        col.Promotions,
		Demotions:         col.Demotions,
		LinesMoved:        col.LinesMoved,
		BytesMoved:        col.BytesMoved,
	}
	sc := simCounters{
		interStall: res.InterStallFrac,
		cxlBytes:   m.Fabric().TotalBytes(),
		cxlBG:      m.Fabric().BackgroundBytes(),
		promotions: col.Promotions,
		linesMoved: col.LinesMoved,
	}
	for cl := range sc.served {
		sc.served[cl] = col.Served(stats.Class(cl))
	}
	if mgr := m.Manager(); mgr != nil {
		gc := mgr.GlobalCache()
		res.GlobalRemapHitRate = gc.HitRate()
		sc.globalHits, sc.globalLooks = gc.Hits(), gc.Hits()+gc.Misses()
		for h := 0; h < cfg.Hosts; h++ {
			lc := mgr.LocalCache(h)
			sc.localRemapHits += lc.Hits()
			sc.localRemapLooks += lc.Hits() + lc.Misses()
		}
		if sc.localRemapLooks > 0 {
			res.LocalRemapHitRate = float64(sc.localRemapHits) / float64(sc.localRemapLooks)
		}
	}
	return res, sc
}

// passStats is one closed-loop pass over a workload's runs.
type passStats struct {
	wall  time.Duration
	setup time.Duration // CPU time, summed over runs
	rt    *runtimeWindow
	execs []execution
}

// directPass executes every run in order on the benchmark's single worker.
func directPass(runs []runSpec, tr *tracer) passStats {
	ps := passStats{execs: make([]execution, len(runs))}
	ps.rt = startWindow()
	t0 := time.Now()
	for i, r := range runs {
		root := tr.start(r.id(), "run", -1)
		ps.execs[i] = execute(r, tr, root)
		tr.end(root)
		ps.setup += ps.execs[i].setup
	}
	ps.wall = time.Since(t0)
	ps.rt.stop()
	return ps
}

// setupPass measures only the set-up of every run — the CPU time of
// machine.New plus reader construction — for workloads whose sweep runs
// inside the service.
func setupPass(runs []runSpec) (time.Duration, error) {
	var total time.Duration
	for _, r := range runs {
		c0 := cpuTime()
		m, err := machine.New(r.cfg, r.scheme)
		if err != nil {
			return 0, err
		}
		am := m.AddressMap()
		for h := 0; h < r.cfg.Hosts; h++ {
			for c := 0; c < r.cfg.CoresPerHost; c++ {
				m.SetTrace(h, c, r.wl.NewReader(am, r.cfg.Hosts, h, c, r.records, r.seed))
			}
		}
		total += cpuTime() - c0
		runtime.KeepAlive(m)
	}
	return total, nil
}

// probeRun spans the traced-only layer probes of one run: a standalone
// drain of fresh readers (readers depend on no machine state, so this
// replays exactly the records the run consumed) and the machine's
// constructors called one by one with the run's configuration. It returns
// the number of records drained.
func probeRun(r runSpec, tr *tracer) int64 {
	root := tr.start(r.id(), "probe", -1)
	defer tr.end(root)
	cfg := r.cfg

	sp := tr.start(r.id(), "workload.drain", root)
	am := config.NewAddressMap(&cfg)
	var n int64
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			rd := r.wl.NewReader(am, cfg.Hosts, h, c, r.records, r.seed)
			for _, ok := rd.Next(); ok; _, ok = rd.Next() {
				n++
			}
		}
	}
	tr.end(sp)

	var keep []any
	if ent, ok := migration.Lookup(r.scheme); ok && ent.Family == migration.FamilyHardware {
		sp = tr.start(r.id(), "core.remap_new", root)
		keep = append(keep, pipmcore.NewManager(pipmcore.Params{
			Hosts:              cfg.Hosts,
			SharedPages:        cfg.SharedPages(),
			Threshold:          cfg.PIPM.MigrationThreshold,
			GlobalCacheEntries: cfg.GlobalRemapCacheEntries(),
			GlobalCacheWays:    cfg.PIPM.GlobalRemapCacheWays,
			LocalCacheEntries:  cfg.LocalRemapCacheEntries(),
			LocalCacheWays:     cfg.PIPM.LocalRemapCacheWays,
			Static:             ent.StaticMap,
		}))
		tr.end(sp)
	}

	sp = tr.start(r.id(), "coherence.devdir_new", root)
	keep = append(keep, coherence.NewDeviceDir(cfg.CXL))
	tr.end(sp)

	sp = tr.start(r.id(), "cache.new", root)
	llc := cfg.LLC
	llc.SizeBytes *= cfg.CoresPerHost
	for h := 0; h < cfg.Hosts; h++ {
		keep = append(keep, cache.New(fmt.Sprintf("h%d.llc", h), llc))
		for c := 0; c < cfg.CoresPerHost; c++ {
			keep = append(keep, cache.New(fmt.Sprintf("h%d.c%d.l1d", h, c), cfg.L1D))
		}
	}
	tr.end(sp)

	sp = tr.start(r.id(), "mem.new", root)
	keep = append(keep, mem.New("cxl", cfg.CXLDRAM))
	for h := 0; h < cfg.Hosts; h++ {
		keep = append(keep, mem.New(fmt.Sprintf("h%d.dram", h), cfg.LocalDRAM))
	}
	tr.end(sp)

	sp = tr.start(r.id(), "cxl.new", root)
	keep = append(keep, cxl.New(cfg.Hosts, cfg.CXL))
	tr.end(sp)

	runtime.KeepAlive(keep)
	return n
}
