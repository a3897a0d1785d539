package machine

import (
	"testing"

	"pipm/internal/audit"
	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/trace"
)

// Edge cases of the kernel epoch tick and the hardware revocation path, run
// under the paranoid invariant auditor so a transient protocol inconsistency
// at any of these boundaries fails loudly.

// TestKernelTickEdges drives the GIM epoch tick through its scheduling
// edges: a tick landing exactly on every quantum boundary, a tick interval
// coprime with the quantum (epochs wrap across quanta mid-stream), and an
// interval longer than the whole run (the tick never fires with work).
func TestKernelTickEdges(t *testing.T) {
	cases := []struct {
		name      string
		interval  sim.Time
		records   int
		wantMoves bool
	}{
		// Exactly the scheduling quantum: every epoch boundary coincides
		// with a core-step event; heap ties must resolve deterministically.
		{"tick-on-quantum-boundary", 100 * sim.Nanosecond, 20000, true},
		// Coprime with the 100 ns quantum: boundaries wrap through every
		// phase of the quantum over the run.
		{"tick-wraps-quanta", 307 * sim.Nanosecond, 20000, true},
		// One tick per 50 µs (the testCfg default) sanity-checks the table
		// against the normal regime.
		{"tick-default", 50 * sim.Microsecond, 20000, true},
		// Interval beyond the simulated runtime: the policy never runs, so
		// nothing may move and no shootdown stall may be charged.
		{"tick-beyond-run", sim.Second, 8000, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Kernel.Interval = tc.interval
			m := build(t, cfg, migration.Memtis)
			if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
				t.Fatal(err)
			}
			attachContested(m, tc.records)
			run(t, m)
			if errs := m.AuditViolations(); len(errs) > 0 {
				t.Fatalf("%d invariant violations; first: %s", len(errs), errs[0])
			}
			col := m.Stats()
			moved := col.Promotions+col.Demotions > 0
			if moved != tc.wantMoves {
				t.Fatalf("moves=%v (prom %d dem %d), want %v",
					moved, col.Promotions, col.Demotions, tc.wantMoves)
			}
			var mgmt sim.Time
			for h := range col.Hosts {
				mgmt += col.Hosts[h].MgmtStall
			}
			if !tc.wantMoves && mgmt != 0 {
				t.Fatalf("no pages moved but %v of shootdown stall charged", mgmt)
			}
			if tc.wantMoves && mgmt == 0 {
				t.Fatal("pages moved but no shootdown stall charged")
			}
		})
	}
}

// TestKernelTickZeroAccessEpochs pins the zero-access epoch: a private-only
// workload under a kernel scheme ticks hundreds of epochs that observe no
// shared access. The policy must stay idle — no ops, no shootdowns, no
// stalls — and the run must terminate (the tick re-arms only while cores
// live).
func TestKernelTickZeroAccessEpochs(t *testing.T) {
	cfg := testCfg()
	cfg.Kernel.Interval = 500 * sim.Nanosecond // hundreds of empty epochs
	m := build(t, cfg, migration.Memtis)
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		t.Fatal(err)
	}
	am := m.AddressMap()
	for h := 0; h < cfg.Hosts; h++ {
		m.SetTrace(h, 0, privateTrace(am, h, 10000))
	}
	run(t, m)
	if errs := m.AuditViolations(); len(errs) > 0 {
		t.Fatalf("invariant violations on idle epochs: %s", errs[0])
	}
	col := m.Stats()
	if col.Promotions != 0 || col.Demotions != 0 || col.BytesMoved != 0 {
		t.Fatalf("idle epochs moved data: prom %d dem %d bytes %d",
			col.Promotions, col.Demotions, col.BytesMoved)
	}
	for h := range col.Hosts {
		if col.Hosts[h].MgmtStall != 0 {
			t.Fatalf("host %d charged %v shootdown stall with no shared accesses",
				h, col.Hosts[h].MgmtStall)
		}
	}
}

// pageRounds builds rounds of {touch every line of shared page 0, then
// stream 2× the LLC through the host's private window}. The private stream
// evicts the page's lines between rounds, so every round misses the whole
// hierarchy again: dirty lines of a migrated page take the Loc-WB incremental
// migration path on eviction, and each round's misses reach the device (vote
// or revocation pressure) instead of hitting warm caches. startGap delays the
// very first record, staggering the two hosts' opening votes.
func pageRounds(am config.AddressMap, h, rounds int, write bool, startGap uint32) trace.Reader {
	const evictLines = 512 // 2× the 256-line test LLC
	recs := make([]trace.Record, 0, rounds*(config.LinesPerPage+evictLines))
	for r := 0; r < rounds; r++ {
		for l := 0; l < config.LinesPerPage; l++ {
			recs = append(recs, trace.Record{
				Addr:  am.SharedAddr(config.Addr(l * config.LineBytes)),
				Write: write,
			})
		}
		for l := 0; l < evictLines; l++ {
			recs = append(recs, trace.Record{Addr: am.PrivateAddr(h, config.Addr(l*config.LineBytes))})
		}
	}
	recs[0].Gap = startGap
	return trace.NewSliceReader(recs)
}

// TestRevocationDuringForwardedFetches drives the §4.2 ⑥ revocation edge:
// host 0 promotes page 0 and incrementally migrates lines into its local
// DRAM; host 1 then hammers the same page, first taking the forwarded
// inter-host path to the migrated lines (ME/I' at host 0), until its vote
// pressure revokes host 0's partial migration mid-stream. The paranoid
// auditor sweeps after every promotion, line migration, forwarded demotion
// and revocation, so any transient inconsistency in the handoff — a stale
// migrated bit, a directory entry left behind, a counter out of range —
// fails the run.
func TestRevocationDuringForwardedFetches(t *testing.T) {
	cfg := testCfg()
	m := build(t, cfg, migration.PIPM)
	if err := m.EnableAuditor(audit.Options{Mode: audit.Paranoid}); err != nil {
		t.Fatal(err)
	}
	am := m.AddressMap()

	// Host 0: dirty rounds over page 0 — the first round's 64 device
	// accesses win the vote (threshold 8), later rounds' evictions migrate
	// dirty lines into local DRAM. Host 1 starts a long instruction gap
	// later (so it cannot contest the opening vote), then keeps re-reading
	// the page cold: forwarded fetches of migrated lines while host 0 is
	// still running, then — once host 0's trace drains and its revocation
	// counter stops being replenished — enough device accesses in one round
	// to drain the 4-bit counter and revoke the partial migration.
	m.SetTrace(0, 0, pageRounds(am, 0, 12, true, 0))
	m.SetTrace(1, 0, pageRounds(am, 1, 40, false, 200000))
	run(t, m)

	if errs := m.AuditViolations(); len(errs) > 0 {
		t.Fatalf("%d invariant violations; first: %s", len(errs), errs[0])
	}
	ms := m.Manager().Stats()
	if ms.Promotions == 0 {
		t.Fatal("page never promoted; the scenario did not exercise migration")
	}
	if ms.LinesMigrated == 0 {
		t.Fatal("no lines migrated; the scenario did not exercise partial migration")
	}
	if ms.Revocations == 0 {
		t.Fatal("no revocation; the contention never revoked the partial migration")
	}
	col := m.Stats()
	if col.Host(1).Served[stats.ClassInterHost] == 0 {
		t.Fatal("host 1 never took the forwarded inter-host path")
	}
	// After revocation the flow ledger must balance: lines migrated minus
	// demoted equals what is still resident (the closing sweep checked the
	// same equality against the walked tables).
	if ms.LinesMigrated < ms.LinesDemoted {
		t.Fatalf("flow ledger negative: %d migrated < %d demoted", ms.LinesMigrated, ms.LinesDemoted)
	}
}
