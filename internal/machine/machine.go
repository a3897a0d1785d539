// Package machine assembles the full multi-host CXL-DSM system: N hosts
// (cores with private L1Ds and a shared LLC, local DRAM), the CXL fabric,
// the pooled CXL DRAM with its device coherence directory, and one of the
// eight page-placement schemes under evaluation. It runs per-core memory
// traces to completion on a deterministic event engine and exposes the
// measurements the paper's figures are built from.
//
// Fidelity notes (see DESIGN.md §3): cores use a bounded-MLP window model;
// cache/directory state updates apply at issue time; shared resources are
// FCFS servers. Cores execute in time-quantum batches, so cross-core
// resource ordering is exact only across quantum boundaries.
package machine

import (
	"fmt"

	"pipm/internal/audit"
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	pipmcore "pipm/internal/core"
	"pipm/internal/cxl"
	"pipm/internal/mem"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/telemetry"
	"pipm/internal/tlb"
	"pipm/internal/trace"
)

// Machine is one configured system instance. Build with New, attach one
// trace reader per core with SetTrace, then Run once.
type Machine struct {
	cfg    config.Config
	amap   config.AddressMap
	scheme migration.Kind

	eng    *sim.Engine
	fabric *cxl.Fabric
	cxlMem *mem.DRAM
	devDir *coherence.DeviceDir
	hosts  []*host

	// Kernel-scheme state.
	policy   migration.Policy
	pt       *migration.PageTable
	tlbModel *tlb.Model
	ledger   *migration.HarmfulLedger

	// Hardware-scheme state (PIPM, HW-static).
	mgr *pipmcore.Manager

	// Scheme-family routing, resolved once at build time (DESIGN.md §11):
	// the invariant walk dispatches through these three functions, which the
	// active family's route module binds; the hooks carry the per-access
	// placement decisions. No per-access registry lookups or interface
	// dispatch happen where a direct call suffices.
	family      migration.Family
	hooks       migration.SchemeHooks
	kHooks      *migration.KernelHooks   // non-nil iff family == FamilyKernel
	hwHooks     *migration.HardwareHooks // non-nil iff family == FamilyHardware
	routeShared func(sim.Time, *coreState, trace.Record, int64) (sim.Time, stats.Class)
	missShared  func(sim.Time, *coreState, trace.Record, int64) (sim.Time, stats.Class)
	evictShared func(h *host, now sim.Time, page int64, addr, line config.Addr, vState cache.State)
	auditShared bool // false when the family has no cross-host sharing semantics

	// Family knobs from the scheme descriptor.
	asyncKernelTransfer bool
	hintsOK             bool

	// Host-scaling geometry, resolved once from cfg.Hosts (DESIGN.md §16):
	// shShift selects the directory sharer-set representation (0 = exact
	// bitmask, >0 = region summary) and gEntryBytes is the hardware size of
	// one global remapping entry for metadata-address pricing.
	shShift     uint8
	gEntryBytes config.Addr

	// Pre-bound tick closures: scheduling a method value through eng.At
	// allocates a fresh closure per call; binding once keeps the periodic
	// re-arms allocation-free.
	kernelTickFn      func()
	sampleFootprintFn func()
	telemetryTickFn   func()

	col *stats.Collector

	// Cached timing constants.
	clock   sim.Clock
	l1Lat   sim.Time
	llcLat  sim.Time
	quantum sim.Time
	width   int64

	liveCores int
	ran       bool

	// Runtime invariant auditor (nil when disabled; see audit.go and
	// audit_sweep.go). audit gates the per-access line check on the walk;
	// auditPending defers paranoid-mode sweeps to the next consistent point.
	aud           *audit.Auditor
	audScratch    auditScratch
	auditTickFn   func()
	auditEvery    sim.Time
	audit         bool
	auditParanoid bool
	auditPending  bool
	auditOwnsTrc  bool

	// Value-tracking layer for differential conformance testing (nil when
	// disabled); see values.go.
	vals *valTracker

	// Telemetry (nil handles when disabled; see telemetry.go). Hot paths
	// call nil-safe methods, so the disabled cost is one predictable branch.
	tel    *telemetry.Registry
	trc    *telemetry.Trace
	telLat [stats.NumClasses]*telemetry.Histogram
	telOpt telemetry.Options

	dbgUp, dbgDir, dbgData, dbgDown sim.Time
	dbgN                            uint64
}

func newCollector(cfg config.Config) *stats.Collector {
	c := stats.New(cfg.Hosts)
	c.CoresPerHost = cfg.CoresPerHost
	return c
}

type host struct {
	id    int
	llc   *cache.Cache
	dram  *mem.DRAM
	cores []*coreState
}

// New builds a machine for the given configuration and scheme. The config
// is validated; traces must be attached before Run.
func New(cfg config.Config, scheme migration.Kind) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ent, ok := migration.Lookup(scheme)
	if !ok {
		return nil, fmt.Errorf("machine: unregistered scheme %v", scheme)
	}
	m := &Machine{
		cfg:     cfg,
		amap:    config.NewAddressMap(&cfg),
		scheme:  scheme,
		eng:     sim.NewEngine(),
		fabric:  cxl.New(cfg.Hosts, cfg.CXL),
		cxlMem:  mem.New("cxl", cfg.CXLDRAM),
		devDir:  coherence.NewDeviceDir(cfg.CXL),
		col:     newCollector(cfg),
		clock:   cfg.CoreClock(),
		l1Lat:   cfg.L1D.Latency,
		llcLat:  cfg.LLC.Latency,
		quantum: 100 * sim.Nanosecond,
		width:   int64(cfg.Width),

		shShift:     coherence.SharerShiftFor(cfg.Hosts),
		gEntryBytes: config.Addr(cfg.GlobalRemapEntrySize()),
	}
	llcCfg := cfg.LLC
	llcCfg.SizeBytes *= cfg.CoresPerHost // Table 2: 2MB per core, shared
	for h := 0; h < cfg.Hosts; h++ {
		hs := &host{
			id:   h,
			llc:  cache.New(fmt.Sprintf("h%d.llc", h), llcCfg),
			dram: mem.New(fmt.Sprintf("h%d.dram", h), cfg.LocalDRAM),
		}
		for c := 0; c < cfg.CoresPerHost; c++ {
			hs.cores = append(hs.cores, &coreState{
				host:   hs,
				id:     c,
				l1:     cache.New(fmt.Sprintf("h%d.c%d.l1d", h, c), cfg.L1D),
				tlb:    tlb.NewTLB(cfg.TLBEntries, cfg.TLBWays),
				window: make([]pending, cfg.MSHRs),
			})
		}
		m.hosts = append(m.hosts, hs)
	}

	// Build the family's state, its SchemeHooks, and bind the route module
	// (DESIGN.md §11). The registry descriptor carries everything
	// scheme-specific; nothing below names an individual scheme.
	pages := cfg.SharedPages()
	m.family = ent.Family
	m.asyncKernelTransfer = ent.AsyncTransfer
	m.hintsOK = ent.Hints
	switch ent.Family {
	case migration.FamilyKernel:
		m.pt = migration.NewPageTable(pages, cfg.Hosts)
		m.tlbModel = tlb.NewModel(cfg.Kernel)
		m.ledger = migration.NewHarmfulLedger(m.estLocalLat(), m.estCXLLat(), m.estInterLat())
		m.policy = ent.NewPolicy(migration.PolicyParams{
			Pages:     pages,
			Hosts:     cfg.Hosts,
			Threshold: cfg.PIPM.MigrationThreshold,
		})
		m.kHooks = migration.NewKernelHooks(m.policy, m.pt, m.ledger)
		m.hooks = m.kHooks
		m.bindKernelRoutes()
	case migration.FamilyHardware:
		m.mgr = pipmcore.NewManager(pipmcore.Params{
			Hosts:              cfg.Hosts,
			SharedPages:        pages,
			Threshold:          cfg.PIPM.MigrationThreshold,
			GlobalCacheEntries: cfg.GlobalRemapCacheEntries(),
			GlobalCacheWays:    cfg.PIPM.GlobalRemapCacheWays,
			LocalCacheEntries:  cfg.LocalRemapCacheEntries(),
			LocalCacheWays:     cfg.PIPM.LocalRemapCacheWays,
			Static:             ent.StaticMap,
		})
		m.hwHooks = migration.NewHardwareHooks(m.mgr, cfg.PIPM.MigrateOnExclusiveEviction)
		m.hooks = m.hwHooks
		m.bindHardwareRoutes()
	case migration.FamilyLocalOnly:
		m.hooks = migration.NopHooks{}
		m.bindLocalOnlyRoutes()
	default:
		m.hooks = migration.NopHooks{}
		m.bindNativeRoutes()
	}
	m.kernelTickFn = m.kernelTick
	m.sampleFootprintFn = m.sampleFootprint
	m.telemetryTickFn = m.telemetryTick
	return m, nil
}

// Family returns the scheme family the machine was built for.
func (m *Machine) Family() migration.Family { return m.family }

// SchemeHooks returns the active family's hook implementation.
func (m *Machine) SchemeHooks() migration.SchemeHooks { return m.hooks }

// Config returns the machine's configuration.
func (m *Machine) Config() config.Config { return m.cfg }

// AddressMap returns the machine's unified physical address layout.
func (m *Machine) AddressMap() config.AddressMap { return m.amap }

// Scheme returns the placement scheme under evaluation.
func (m *Machine) Scheme() migration.Kind { return m.scheme }

// SetTrace attaches a record stream to core c of host h.
func (m *Machine) SetTrace(h, c int, r trace.Reader) {
	m.hosts[h].cores[c].rd = r
}

// Stats returns the collector (valid after Run).
func (m *Machine) Stats() *stats.Collector { return m.col }

// HarmfulFraction returns Fig. 5's metric for kernel schemes, 0 otherwise.
func (m *Machine) HarmfulFraction() float64 {
	if m.ledger == nil {
		return 0
	}
	return m.ledger.HarmfulFraction()
}

// Manager exposes PIPM hardware state for hardware schemes (nil otherwise).
func (m *Machine) Manager() *pipmcore.Manager { return m.mgr }

// Fabric exposes the CXL fabric for traffic inspection.
func (m *Machine) Fabric() *cxl.Fabric { return m.fabric }

// ExecTime returns the run's makespan.
func (m *Machine) ExecTime() sim.Time { return m.col.ExecTime() }

// IPC returns aggregate instructions per core-cycle.
func (m *Machine) IPC() float64 { return m.col.IPC(m.clock, m.cfg.TotalCores()) }

// Run executes all attached traces to completion. It may be called once.
func (m *Machine) Run() error {
	if m.ran {
		return fmt.Errorf("machine: Run called twice")
	}
	m.ran = true
	for _, hs := range m.hosts {
		for _, c := range hs.cores {
			if c.rd == nil {
				return fmt.Errorf("machine: host %d core %d has no trace", hs.id, c.id)
			}
			m.liveCores++
		}
	}
	// The At call order below fixes the (time, seq) tie-break order: every
	// core's first step runs before the tick chains seeded at the same
	// instant.
	for _, hs := range m.hosts {
		for _, c := range hs.cores {
			// One step closure per core for the whole run: stepCore re-arms
			// with it, so the per-quantum re-schedule never allocates.
			c := c
			c.step = func() { m.stepCore(c) }
			m.eng.At(0, c.step)
		}
	}
	if m.policy != nil {
		m.eng.At(m.cfg.Kernel.Interval, m.kernelTickFn)
	}
	// Footprint sampling for every scheme, on the kernel interval cadence.
	m.eng.At(m.cfg.Kernel.Interval/2, m.sampleFootprintFn)
	if m.tel != nil {
		// Baseline snapshot at t=0 (after every core's first step, which is
		// scheduled earlier at the same instant), then interval ticks.
		m.eng.At(0, func() { m.tel.Snapshot(0) })
		m.eng.At(m.telOpt.SampleInterval, m.telemetryTickFn)
	}
	if m.aud != nil {
		m.eng.At(m.auditEvery, m.auditTickFn)
	}
	m.eng.Run()
	if m.aud != nil {
		// Closing sweep over the final state.
		m.auditSweep(true)
	}
	if m.ledger != nil {
		m.ledger.Finish()
	}
	m.finalizeStats()
	if m.tel != nil {
		// Closing snapshot: the final state at the run's makespan.
		m.tel.Snapshot(m.eng.Now())
	}
	return nil
}

func (m *Machine) finalizeStats() {
	for _, hs := range m.hosts {
		st := m.col.Host(hs.id)
		for _, c := range hs.cores {
			st.Instructions += c.instr
			st.MemOps += c.memOps
			st.FinishTime = sim.Max(st.FinishTime, c.finish)
		}
	}
	if m.mgr != nil {
		ms := m.mgr.Stats()
		m.col.Promotions = ms.Promotions
		m.col.Demotions = ms.Revocations
		m.col.LinesMoved = ms.LinesMigrated
	}
}

// Latency estimates for the harmful-migration ledger, derived from the
// configuration rather than measured, so the ledger is scheme-independent.
func (m *Machine) estLocalLat() sim.Time {
	d := m.cfg.LocalDRAM
	return d.TRCD + d.TCL + 2*sim.Nanosecond
}

func (m *Machine) estCXLLat() sim.Time {
	perDir := m.cfg.CXL.LinkLatency*sim.Time(1+m.cfg.CXL.SwitchHops) + 13*sim.Nanosecond
	return 2*perDir + m.cfg.CXL.DirLatency + m.estLocalLat()
}

func (m *Machine) estInterLat() sim.Time {
	perDir := m.cfg.CXL.LinkLatency*sim.Time(1+m.cfg.CXL.SwitchHops) + 13*sim.Nanosecond
	return 4*perDir + m.cfg.CXL.DirLatency + m.estLocalLat() + m.llcLat
}

// sampleFootprint records each host's resident migrated pages/lines.
func (m *Machine) sampleFootprint() {
	if m.liveCores == 0 {
		return
	}
	for h := 0; h < m.cfg.Hosts; h++ {
		var pages, lines int64
		switch {
		case m.pt != nil:
			pages = int64(m.pt.Resident(h))
			lines = pages * config.LinesPerPage
		case m.mgr != nil:
			pages = int64(m.mgr.MigratedPages(h))
			lines = int64(m.mgr.MigratedLines(h))
		}
		m.col.SampleFootprint(h, pages, lines)
	}
	m.eng.At(m.eng.Now()+m.cfg.Kernel.Interval, m.sampleFootprintFn)
}
