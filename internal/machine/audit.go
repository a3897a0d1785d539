package machine

import (
	"fmt"

	"pipm/internal/audit"
	"pipm/internal/cache"
	"pipm/internal/coherence"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
)

// The runtime invariant auditor (DESIGN.md §12) checks — on live simulator
// state — the same invariants the model checker proves on the abstract
// protocol (SWMR, directory precision, ME/I' consistency) plus the global
// properties only a whole-state walk can see (conservation, remap-table
// agreement, footprint accounting). The model checker covers the protocol as
// specified, the golden digests pin observed behaviour, and the auditor
// covers the walk as implemented: three independent guards.
//
// The auditor is observation-only: every probe goes through Peek/ForEach
// accessors that never touch LRU state or statistics, so Result digests are
// bit-identical with auditing on or off (TestGoldenQuickSweepAudited). Off,
// it costs one nil/bool check per access (BenchmarkAuditorDisabledOverhead).

// auditTrailRing is the private event-ring capacity the auditor creates when
// trace telemetry is not enabled, so violations still carry a protocol trail.
const auditTrailRing = 256

// EnableAuditor attaches a runtime invariant auditor. Call after New and
// before Run; zero-mode options are a no-op. In Quantum mode the whole
// machine state is swept every Interval quanta; Paranoid mode additionally
// checks the touched line after every shared access and sweeps after every
// protocol transition (promotion, revocation, line migration, epoch
// migration). Check AuditReport after Run.
func (m *Machine) EnableAuditor(o audit.Options) error {
	if m.ran {
		return fmt.Errorf("machine: EnableAuditor after Run")
	}
	if !o.Enabled() {
		return nil
	}
	if m.aud != nil {
		return fmt.Errorf("machine: auditor already enabled")
	}
	m.aud = audit.New(o)
	m.auditEvery = m.quantum * sim.Time(m.aud.Options().Interval)
	if o.Mode == audit.Paranoid {
		m.audit = true
		m.auditParanoid = true
	}
	if m.trc == nil {
		// Violations report a bounded protocol-event trail; when trace
		// telemetry is off the auditor brings its own ring. TelemetryOutput
		// must keep returning nil in that case (see telemetry.go).
		m.trc = telemetry.NewTrace(auditTrailRing)
		m.auditOwnsTrc = true
	}
	m.auditTickFn = m.auditTick
	m.audScratch.init(m)
	return nil
}

// AuditViolations returns the invariant violations observed as strings (nil
// when the auditor was off or everything held).
func (m *Machine) AuditViolations() []string {
	if m.aud == nil {
		return nil
	}
	var out []string
	for _, v := range m.aud.Report().Violations {
		out = append(out, fmt.Sprintf("%s: %s", v.Invariant, v.Detail))
	}
	return out
}

// AuditReport returns the auditor's findings (zero Report when disabled).
// Valid after Run; Report.Err() is the run-failing signal.
func (m *Machine) AuditReport() audit.Report {
	if m.aud == nil {
		return audit.Report{}
	}
	return m.aud.Report()
}

// auditFamily maps the machine's scheme family to the auditor's.
func (m *Machine) auditFamily() audit.Family {
	switch m.family {
	case migration.FamilyKernel:
		return audit.FamilyKernel
	case migration.FamilyHardware:
		return audit.FamilyHardware
	case migration.FamilyLocalOnly:
		return audit.FamilyLocalOnly
	default:
		return audit.FamilyNative
	}
}

// noteAuditTransition marks that a protocol transition happened; in paranoid
// mode the machine sweeps at the next consistent point (after the access
// returns — mid-access state is legitimately inconsistent, e.g. a directory
// entry installed before its fill).
func (m *Machine) noteAuditTransition() {
	if m.auditParanoid {
		m.auditPending = true
	}
}

// auditTick is the per-quantum sweep, driven by the sim event heap like the
// footprint sampler; it re-arms until the last core finishes.
func (m *Machine) auditTick() {
	if m.liveCores == 0 {
		return
	}
	m.auditSweep(true)
	m.eng.At(m.eng.Now()+m.auditEvery, m.auditTickFn)
}

// auditLine checks the cross-host state of one shared line (the paranoid
// per-access check; the quantum sweep applies the same rules to every line).
func (m *Machine) auditLine(line config.Addr) {
	if m.aud == nil {
		return
	}
	now := m.eng.Now()
	exclusiveAt, sharers := -1, 0
	var exclusiveState cache.State
	var holders, sharedHolders coherence.HostSet
	for _, hs := range m.hosts {
		st, ok := hs.llc.Peek(line)
		if !ok {
			// Inclusion: no L1 may hold a line its LLC lost.
			for _, c := range hs.cores {
				if _, l1ok := c.l1.Peek(line); l1ok {
					m.aud.Failf(now, m.trc, audit.InvInclusion,
						"host %d core %d caches line %#x absent from its LLC", hs.id, c.id, uint64(line))
				}
			}
			continue
		}
		holders.Add(hs.id)
		switch st {
		case cache.Modified, cache.Exclusive, cache.MigratedExclusive:
			if exclusiveAt >= 0 {
				m.aud.Failf(now, m.trc, audit.InvSWMR,
					"line %#x exclusive at hosts %d and %d", uint64(line), exclusiveAt, hs.id)
			}
			exclusiveAt = hs.id
			exclusiveState = st
		case cache.Shared:
			sharers++
			sharedHolders.Add(hs.id)
		}
	}
	if exclusiveAt >= 0 && sharers > 0 {
		m.aud.Failf(now, m.trc, audit.InvSWMR,
			"line %#x exclusive at host %d while %d hosts share it", uint64(line), exclusiveAt, sharers)
	}

	// ME implies the line is migrated to that host and the device directory
	// holds no entry (§4.3: migrated lines need none).
	if exclusiveAt >= 0 && exclusiveState == cache.MigratedExclusive {
		if m.mgr == nil {
			m.aud.Failf(now, m.trc, audit.InvMigrated,
				"line %#x in ME without a PIPM manager", uint64(line))
			return
		}
		page := m.amap.SharedPageIndex(line << config.LineShift)
		if m.mgr.Owner(page) != exclusiveAt {
			m.aud.Failf(now, m.trc, audit.InvMigrated,
				"line %#x ME at host %d but page owned by %d", uint64(line), exclusiveAt, m.mgr.Owner(page))
		}
		if _, ok := m.devDir.Peek(line); ok {
			m.aud.Failf(now, m.trc, audit.InvMigrated,
				"line %#x has a device directory entry while migrated", uint64(line))
		}
	}

	// Directory precision: an M entry's owner must actually hold the line
	// exclusively; S entries' sharers must hold it.
	if e, ok := m.devDir.Peek(line); ok {
		switch e.State {
		case coherence.DirModified:
			st, held := m.hosts[e.Owner].llc.Peek(line)
			if !held || st == cache.Shared {
				m.aud.Failf(now, m.trc, audit.InvDirPrecision,
					"line %#x M-owned by host %d which holds %v/%v", uint64(line), e.Owner, st, held)
			}
		case coherence.DirShared:
			if e.Sharers.Exact() {
				it := e.Sharers.Iter(len(m.hosts))
				for it.Next() {
					if !holders.Contains(it.Host()) {
						m.aud.Failf(now, m.trc, audit.InvDirPrecision,
							"line %#x lists sharer %d which holds nothing", uint64(line), it.Host())
					}
				}
			} else if !e.Sharers.Describes(sharedHolders) {
				// Summary sets can't name individual sharers; the invariant is
				// that the count is exact and every holder falls in a present
				// region.
				m.aud.Failf(now, m.trc, audit.InvDirPrecision,
					"line %#x sharer summary %v does not describe holders %v",
					uint64(line), e.Sharers, sharedHolders)
			}
		}
	}
}
