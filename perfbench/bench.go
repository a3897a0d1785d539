package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/service"
	"pipm/internal/stats"
	"pipm/internal/store"
)

// bench is one benchmark run over one workload.
type bench struct {
	o      options
	w      benchWorkload
	runs   []runSpec
	g      *gate
	tr     *tracer // nil when untraced
	lb     *loopback
	dir    string
	log    io.Writer
	stores int

	storeBytes int // body bytes written by save
}

// cold is one closed-loop pass over the workload's sweep.
type cold struct {
	passStats
	results  []harness.Result
	st       *store.Store // the store a service pass filled
	memoHits int          // the service engine's memo hits
}

func (b *bench) newStore() (*store.Store, error) {
	b.stores++
	return store.Open(filepath.Join(b.dir, fmt.Sprintf("store-%d", b.stores)))
}

func (b *bench) records() int64 {
	var n int64
	for _, r := range b.runs {
		n += r.totalRecords()
	}
	return n
}

// checkResults gates one pass's Results and returns them.
func (b *bench) checkResults(what string, execs []execution) []harness.Result {
	res := make([]harness.Result, len(execs))
	for i, e := range execs {
		b.g.checkResult(what, b.runs[i].key, e.res, e.err)
		res[i] = e.res
	}
	b.g.checkInvariance(b.runs, res)
	return res
}

// coldPass runs the sweep once: through the machine layer directly, or —
// for a service workload — by submitting it to a fresh service over a fresh
// store and reading the stored Results back.
func (b *bench) coldPass(tr *tracer) (cold, error) {
	if !b.w.viaService() {
		ps := directPass(b.runs, tr)
		return cold{passStats: ps, results: b.checkResults("run", ps.execs)}, nil
	}
	setup, err := setupPass(b.runs)
	if err != nil {
		return cold{}, err
	}
	st, err := b.newStore()
	if err != nil {
		return cold{}, err
	}
	svc := b.lb.use(st)
	root := tr.start("sweep", "sweep", -1)
	rt := startWindow()
	t0 := time.Now()
	state, err := b.lb.sweep(b.w.spec(b.o.seed, b.o.recordsDiv), tr, "sweep", root)
	wall := time.Since(t0)
	rt.stop()
	tr.end(root)
	b.g.check(err == nil && state == string(service.JobDone), "cold sweep: state %q, error %v", state, err)

	c := cold{passStats: passStats{wall: wall, setup: setup, rt: rt}, st: st}
	for _, rs := range svc.Manager().Runner().RunStats() {
		c.memoHits += rs.MemoHits
	}
	execs := make([]execution, len(b.runs))
	for i, r := range b.runs {
		body, err := st.Load(r.key)
		if err == nil {
			execs[i].res, _, err = harness.DecodeStoredEntry(body)
		}
		execs[i].err = err
	}
	c.results = b.checkResults("service run", execs)
	return c, nil
}

// checkSpec checks that a service workload's submission expands to exactly
// the runs the benchmark checks and times directly.
func (b *bench) checkSpec() error {
	if !b.w.viaService() {
		return nil
	}
	runs, _, err := service.Expand(b.w.spec(b.o.seed, b.o.recordsDiv), 0)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, r := range b.runs {
		want[r.key] = true
	}
	ok := len(runs) == len(b.runs)
	for _, r := range runs {
		ok = ok && want[r.Key]
	}
	b.g.check(ok, "service sweep expands to %d runs that differ from the benchmark's %d", len(runs), len(b.runs))
	return nil
}

// latency is what the warm and fetch phases measured.
type latency struct {
	warm     []float64 // CPU seconds per warm resubmission
	fetch    []float64 // milliseconds per fetch, every round
	rounds   int
	sims     int // runs the warm resubmissions simulated
	memoHits int
}

func (b *bench) measure(ms metricSet) error {
	if err := b.checkSpec(); err != nil {
		return err
	}
	start := time.Now()
	budget := time.Duration(b.o.seconds * float64(time.Second))
	logPass := func(kind string, c cold) {
		fmt.Fprintf(b.log, "%s pass %s: sweep %.3fs CPU (%.3fs wall), setup %.3fs CPU, alloc %.0f MiB, peak live heap %.0f MiB (at %s)\n",
			b.w.name, kind, secs(c.rt.CPU), secs(c.wall), secs(c.setup), mib(c.rt.Alloc), mib(c.rt.Peak), since(start))
	}

	// Cold passes, each followed by a burst of warm resubmissions and one
	// round of fetches, so the millisecond-scale phases are sampled across
	// the whole run like the sweep itself. The traced run alternates
	// untraced and traced passes, so the trace overhead compares passes made
	// under the same conditions.
	var passes, traced []cold
	var direct []passStats // service workloads, traced: the machine-layer pass
	var saved *store.Store // direct workloads: the first pass's Results
	var lat latency
	for len(passes) == 0 || (b.tr != nil && len(traced) == 0) || time.Since(start) < budget {
		tr := b.tr
		if len(traced) >= len(passes) {
			tr = nil
		}
		c, err := b.coldPass(tr)
		if err != nil {
			return err
		}
		if tr == nil {
			logPass("untraced", c)
			passes = append(passes, c)
		} else {
			logPass("traced", c)
			traced = append(traced, c)
			if b.w.viaService() {
				ps := directPass(b.runs, tr)
				b.checkResults("direct run", ps.execs)
				direct = append(direct, ps)
			}
		}
		warmStore := c.st
		if !b.w.viaService() {
			if saved == nil {
				if saved, err = b.save(c.results); err != nil {
					return err
				}
			}
			warmStore = saved
		}
		if err := b.latencyBurst(warmStore, &lat); err != nil {
			return err
		}
	}
	b.g.check(lat.sims == 0, "warm resubmissions simulated %d runs, want 0", lat.sims)
	fmt.Fprintf(b.log, "%s warm sweep mean %.3fms median %.3fms CPU over %d; fetch p50 %.3fms p95 %.3fms p99 %.3fms p99.9 %.3fms over %d in %d rounds (at %s)\n",
		b.w.name, 1e3*mean(lat.warm), 1e3*median(lat.warm), len(lat.warm), percentile(lat.fetch, 50), percentile(lat.fetch, 95),
		percentile(lat.fetch, 99), percentile(lat.fetch, 99.9), len(lat.fetch), lat.rounds, since(start))

	cells, speedups := cellSpeedups(b.runs, passes[0].results)
	for i, c := range cells {
		fmt.Fprintf(b.log, "%s: PIPM speed-up over Native on %s %.4fx\n", b.w.name, c, speedups[i])
	}
	if b.tr == nil {
		b.endToEnd(ms, passes, lat)
		return nil
	}

	// Traced-only probes: the standalone trace drain and the constructor
	// split, one run at a time.
	var drained int64
	for _, r := range b.runs {
		drained += probeRun(r, b.tr)
	}
	b.g.check(drained == b.records(), "drained %d records, the sweep simulates %d", drained, b.records())
	if b.w.viaService() {
		// The service workload's store layer is timed on the last pass's
		// Results, outside the service.
		if _, err := b.save(passes[len(passes)-1].results); err != nil {
			return err
		}
	}

	counters := traced[len(traced)-1].execs
	if b.w.viaService() {
		counters = direct[len(direct)-1].execs
	}
	b.perLayer(ms, layerInputs{
		traced: traced, untraced: passes,
		passSpans:  b.tr.totalsUnder("run", "sweep"),
		storeSpans: b.tr.totalsUnder("store"),
		probeSpans: b.tr.totalsUnder("probe"),
		execs:      counters,
		drained:    drained,
		lat:        lat,
		coldMemo:   passes[len(passes)-1].memoHits,
	})
	return nil
}

// save writes Results to a fresh store as the harness engine would, then
// loads and decodes each entry back; it returns the store.
func (b *bench) save(results []harness.Result) (*store.Store, error) {
	st, err := b.newStore()
	if err != nil {
		return nil, err
	}
	root := b.tr.start("store", "store", -1)
	defer b.tr.end(root)
	for i, r := range b.runs {
		body, err := encodeEntry(results[i])
		if err != nil {
			return nil, err
		}
		sp := b.tr.start(r.id(), "store.save", root)
		err = st.Save(r.key, body)
		b.tr.end(sp)
		b.g.check(err == nil, "store.Save %.12s: %v", r.key, err)
		b.storeBytes += len(body)
	}
	for _, r := range b.runs {
		sp := b.tr.start(r.id(), "store.load", root)
		body, err := st.Load(r.key)
		b.tr.end(sp)
		sp = b.tr.start(r.id(), "harness.decode", root)
		res, _, derr := harness.DecodeStoredEntry(body)
		b.tr.end(sp)
		if err == nil {
			err = derr
		}
		b.g.checkResult("store load", r.key, res, err)
	}
	return st, nil
}

// latencyBurst makes the warm resubmissions and one fetch round of one pass
// against st, the store that pass left warm. Each phase goes on until it
// has made its least count (-warm, -fetches) and taken a thirtieth of the
// run's budget, so each burst samples the host for a second or more and a
// run samples it between every two passes, as the passes do.
//
// Both phases time millisecond and sub-millisecond request paths, so they
// run on one P: with a single closed-loop client only one goroutine is
// runnable at a time, and a second P only adds cross-thread wake-up jitter
// to every request.
func (b *bench) latencyBurst(st *store.Store, lat *latency) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	debug.FreeOSMemory()
	t0 := time.Now()
	for i := 0; i < b.o.warm || time.Since(t0) < b.phase(); i++ {
		runtime.GC() // each resubmission starts from a collected heap
		d, sims, memo, err := b.warmPass(st)
		if err != nil {
			return err
		}
		lat.warm = append(lat.warm, secs(d))
		lat.sims += sims
		lat.memoHits += memo
	}
	if !b.w.viaService() {
		b.lb.use(st) // serve the fetches from the warm store
	}
	lat.fetch = append(lat.fetch, b.fetchRound()...)
	lat.rounds++
	return nil
}

// warmPass resubmits the sweep to a fresh engine over st. It returns the
// sweep's CPU time, how many runs it simulated and its memo hits.
func (b *bench) warmPass(st *store.Store) (time.Duration, int, int, error) {
	root := b.tr.start("warm", "warm", -1)
	defer b.tr.end(root)
	if b.w.viaService() {
		svc := b.lb.use(st)
		c0 := cpuTime()
		state, err := b.lb.sweep(b.w.spec(b.o.seed, b.o.recordsDiv), b.tr, "warm", root)
		d := cpuTime() - c0
		b.g.check(err == nil && state == string(service.JobDone), "warm sweep: state %q, error %v", state, err)
		memo := 0
		for _, rs := range svc.Manager().Runner().RunStats() {
			memo += rs.MemoHits
		}
		return d, int(svc.Metrics().Simulations.Load()), memo, nil
	}
	runner := harness.NewRunnerOpts(harness.Options{Workers: 1, Store: st})
	execs := make([]execution, len(b.runs))
	c0 := cpuTime()
	for i, r := range b.runs {
		sp := b.tr.start(r.id(), "harness.get", root)
		execs[i].res, execs[i].err = runner.Get(r.req())
		b.tr.end(sp)
	}
	d := cpuTime() - c0
	b.checkResults("warm run", execs)
	sims, memo := 0, 0
	for _, rs := range runner.RunStats() {
		if !rs.StoreHit {
			sims++
		}
		memo += rs.MemoHits
	}
	return d, sims, memo, nil
}

// phase is the least time each phase of a latency burst takes.
func (b *bench) phase() time.Duration {
	return time.Duration(b.o.seconds * float64(time.Second) / 30)
}

// fetchRound fetches every stored body round-robin in closed loop and
// checks each. It returns the client-side latencies in milliseconds. An
// untimed pass over the keys first fetches every entry, decodes it and
// checks its digest; the timed fetches must return the same bytes.
func (b *bench) fetchRound() []float64 {
	want := make(map[string][]byte, len(b.runs))
	for _, r := range b.runs {
		body, err := b.lb.fetch(r.key)
		var res harness.Result
		if err == nil {
			res, _, err = harness.DecodeStoredEntry(body)
		}
		b.g.checkResult("fetch", r.key, res, err)
		want[r.key] = body
	}
	runtime.GC()
	root := b.tr.start("fetch", "fetch", -1)
	defer b.tr.end(root)
	lat := make([]float64, 0, b.o.fetches)
	t0 := time.Now()
	for i := 0; i < b.o.fetches || time.Since(t0) < b.phase(); i++ {
		r := b.runs[i%len(b.runs)]
		sp := b.tr.start(r.id(), "service.fetch", root)
		b.lb.mu.Lock()
		b.lb.parent = sp
		b.lb.mu.Unlock()
		t0 := time.Now()
		body, err := b.lb.fetch(r.key)
		d := time.Since(t0)
		b.tr.end(sp)
		lat = append(lat, millis(d))
		b.g.check(err == nil && bytes.Equal(body, want[r.key]), "fetch %.12s: %d bytes, error %v", r.key, len(body), err)
	}
	return lat
}

// endToEnd reports the untraced metrics: medians over the cold passes, the
// mean of the warm resubmissions and the 95th percentile of the fetches.
// The resubmissions take a mean because the host switches between a fast
// and a slow speed every few seconds: a pass's CPU time sums over both
// modes, and so does a mean, where the median of millisecond samples jumps
// to whichever mode held most of the sampled time.
func (b *bench) endToEnd(ms metricSet, passes []cold, lat latency) {
	var cpu, rate, setup, alloc, peak []float64
	for _, p := range passes {
		cpu = append(cpu, secs(p.rt.CPU))
		rate = append(rate, float64(b.records())/secs(p.rt.CPU))
		setup = append(setup, secs(p.setup))
		alloc = append(alloc, mib(p.rt.Alloc))
		peak = append(peak, mib(p.rt.Peak))
	}
	ms.set("sweep_s", "s", median(cpu))
	ms.set("records_per_s", "1/s", median(rate))
	ms.set("setup_s", "s", median(setup))
	ms.set("alloc_mb", "MiB", median(alloc))
	ms.set("peak_heap_mb", "MiB", median(peak))
	ms.set("pipm_speedup", "x", pipmSpeedup(b.runs, passes[0].results))
	ms.set("warm_sweep_s", "s", mean(lat.warm))
	ms.set("fetch_p95_ms", "ms", percentile(lat.fetch, 95))
}

// pipmSpeedup is the geometric mean over the sweep's cells of Native's
// simulated execution time over PIPM's.
func pipmSpeedup(runs []runSpec, res []harness.Result) float64 {
	_, sp := cellSpeedups(runs, res)
	return geomean(sp)
}

// cellSpeedups names the sweep's cells in order and gives Native's
// simulated execution time over PIPM's in each.
func cellSpeedups(runs []runSpec, res []harness.Result) ([]string, []float64) {
	native, pipm := map[string]float64{}, map[string]float64{}
	var cells []string
	for i, r := range runs {
		switch r.scheme {
		case migration.Native:
			native[r.cell()] = float64(res[i].ExecTime)
			cells = append(cells, r.cell())
		case migration.PIPM:
			pipm[r.cell()] = float64(res[i].ExecTime)
		}
	}
	var sp []float64
	for _, c := range cells {
		sp = append(sp, ratio(native[c], pipm[c]))
	}
	return cells, sp
}

// layerInputs is what the per-layer report is computed from.
type layerInputs struct {
	traced     []cold
	untraced   []cold
	passSpans  map[string]layerTotal // every traced cold pass
	storeSpans map[string]layerTotal
	probeSpans map[string]layerTotal
	execs      []execution // one traced machine-layer pass
	drained    int64
	lat        latency
	coldMemo   int // memo hits of the last cold service pass
}

// perLayer reports the traced metrics. Span sums over the traced passes are
// divided by the pass count, so every time is per pass.
func (b *bench) perLayer(ms metricSet, in layerInputs) {
	n := float64(len(in.traced))
	per := func(name string) float64 { return secs(in.passSpans[name].self) / n }
	perMB := func(name string) float64 { return mib(in.passSpans[name].bytes) / n }
	probe := func(name string) float64 { return secs(in.probeSpans[name].self) }
	probeMB := func(name string) float64 { return mib(in.probeSpans[name].bytes) }

	ms.set("machine.new_s", "s", per("machine.new"))
	ms.set("machine.new_mb", "MiB", perMB("machine.new"))
	ms.set("core.remap_new_s", "s", probe("core.remap_new"))
	ms.set("core.remap_new_mb", "MiB", probeMB("core.remap_new"))
	ms.set("coherence.devdir_new_s", "s", probe("coherence.devdir_new"))
	ms.set("coherence.devdir_new_mb", "MiB", probeMB("coherence.devdir_new"))
	ms.set("cache.new_s", "s", probe("cache.new"))
	ms.set("cache.new_mb", "MiB", probeMB("cache.new"))
	ms.set("mem.new_s", "s", probe("mem.new"))
	ms.set("cxl.new_s", "s", probe("cxl.new"))

	traceS := probe("workload.drain")
	runS := per("machine.run")
	ms.set("workload.trace_s", "s", traceS)
	ms.set("workload.records", "count", float64(in.drained))
	ms.set("machine.run_s", "s", runS)
	ms.set("machine.self_s", "s", runS-traceS)
	ms.set("machine.ns_per_record", "ns", ratio((runS-traceS)*1e9, float64(in.drained)))

	var sc simCounters
	for _, e := range in.execs {
		sc.add(e.sim)
	}
	for cl := 0; cl < stats.NumClasses; cl++ {
		ms.set("stats.served."+stats.Class(cl).String(), "count", float64(sc.served[cl]))
	}
	ms.set("stats.inter_stall_frac", "ratio", ratio(sc.interStall, float64(len(in.execs))))
	ms.set("cxl.bytes", "B", float64(sc.cxlBytes))
	ms.set("cxl.background_bytes", "B", float64(sc.cxlBG))
	ms.set("core.local_remap_hit_rate", "ratio", ratio(float64(sc.localRemapHits), float64(sc.localRemapLooks)))
	ms.set("core.global_remap_hit_rate", "ratio", ratio(float64(sc.globalHits), float64(sc.globalLooks)))
	ms.set("migration.promotions", "count", float64(sc.promotions))
	ms.set("migration.lines_moved", "count", float64(sc.linesMoved))

	ms.set("store.save_s", "s", secs(in.storeSpans["store.save"].self))
	ms.set("store.load_s", "s", secs(in.storeSpans["store.load"].self))
	ms.set("store.bytes", "B", float64(b.storeBytes))
	ms.set("harness.decode_s", "s", secs(in.storeSpans["harness.decode"].self))
	ms.set("service.job_s", "s", secs(in.passSpans["service.job"].total)/n)
	b.lb.mu.Lock()
	var srv []float64
	for _, d := range b.lb.fetchSrv {
		srv = append(srv, millis(d))
	}
	b.lb.mu.Unlock()
	ms.set("service.fetch_server_ms", "ms", median(srv))
	ms.set("fetch.samples", "count", float64(len(in.lat.fetch)))
	ms.set("fetch.p50_ms", "ms", percentile(in.lat.fetch, 50))
	ms.set("fetch.p99_ms", "ms", percentile(in.lat.fetch, 99))
	ms.set("harness.simulations", "count", float64(in.lat.sims))
	ms.set("harness.memo_hits", "count", float64(in.lat.memoHits+in.coldMemo))

	// The runtime's counters come from the untraced passes: the conditions
	// the end-to-end metrics are measured under.
	var gcCycles, gcPause, untracedCPU, tracedCPU []float64
	for _, c := range in.untraced {
		gcCycles = append(gcCycles, float64(c.rt.Cycles))
		gcPause = append(gcPause, secs(c.rt.Pause))
		untracedCPU = append(untracedCPU, secs(c.rt.CPU))
	}
	for _, c := range in.traced {
		tracedCPU = append(tracedCPU, secs(c.rt.CPU))
	}
	ms.set("runtime.gc_cycles", "count", median(gcCycles))
	ms.set("runtime.gc_pause_s", "s", median(gcPause))
	ms.set("trace_overhead", "ratio", ratio(median(tracedCPU), median(untracedCPU)))
	var rootSelf, rootTotal time.Duration
	for _, name := range []string{"run", "sweep"} {
		rootSelf += in.passSpans[name].self
		rootTotal += in.passSpans[name].total
	}
	ms.set("trace.residual_s", "s", secs(rootSelf)/n)
	ms.set("trace.residual_frac", "ratio", ratio(secs(rootSelf), secs(rootTotal)))

	names := make([]string, 0, len(in.passSpans))
	for name := range in.passSpans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := in.passSpans[name]
		fmt.Fprintf(b.log, "  layer %-22s self %8.4fs  total %8.4fs  %9.1f MiB  ×%d\n",
			name, secs(t.self)/n, secs(t.total)/n, mib(t.bytes)/n, t.count)
	}
}
