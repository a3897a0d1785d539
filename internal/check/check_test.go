package check

import (
	"strings"
	"testing"
)

func TestBaseMSIProtocolIsCorrect(t *testing.T) {
	for _, hosts := range []int{2, 3, 4} {
		res, v := Run(Options{Hosts: hosts, Lines: 1, PIPM: false})
		if v != nil {
			t.Fatalf("MSI/%d hosts: %v", hosts, v)
		}
		if res.States < 5 {
			t.Fatalf("MSI/%d hosts: only %d states explored", hosts, res.States)
		}
		if !res.DeadlockFree {
			t.Fatalf("MSI/%d hosts: deadlock reported", hosts)
		}
	}
}

func TestPIPMProtocolIsCorrect(t *testing.T) {
	for _, hosts := range []int{2, 3, 4} {
		res, v := Run(Options{Hosts: hosts, Lines: 1, PIPM: true})
		if v != nil {
			t.Fatalf("PIPM/%d hosts: %v", hosts, v)
		}
		if !res.DeadlockFree {
			t.Fatalf("PIPM/%d hosts: deadlock reported", hosts)
		}
		// The PIPM space must strictly contain the MSI space (new states
		// from ME/I'/ownership).
		msi, _ := Run(Options{Hosts: hosts, Lines: 1, PIPM: false})
		if res.States <= msi.States {
			t.Fatalf("PIPM explored %d states, MSI %d — extension added nothing",
				res.States, msi.States)
		}
	}
}

// TestStateSpaceSizes pins every instance's exploration size. The counts
// were measured before the 1-line reference model was folded into the
// generalized one; the 1-line rows equal that model's numbers, so this
// table is the regression reference for the transition system.
func TestStateSpaceSizes(t *testing.T) {
	for _, c := range []struct {
		hosts, lines               int
		pipm                       bool
		states, transitions, depth int
	}{
		{2, 1, false, 6, 30, 2},
		{2, 1, true, 52, 322, 8},
		{2, 2, false, 36, 360, 4},
		{2, 2, true, 918, 10142, 13},
		{3, 1, false, 11, 81, 3},
		{3, 1, true, 115, 996, 8},
		{3, 2, false, 121, 1782, 6},
		{3, 2, true, 3325, 52605, 13},
		{4, 1, false, 20, 196, 4},
		{4, 1, true, 240, 2684, 8},
		{4, 2, false, 400, 7840, 8},
		{4, 2, true, 11540, 239644, 14},
	} {
		res, v := Run(Options{Hosts: c.hosts, Lines: c.lines, PIPM: c.pipm})
		if v != nil {
			t.Fatalf("hosts=%d lines=%d pipm=%v: %v", c.hosts, c.lines, c.pipm, v)
		}
		if res.States != c.states || res.Transitions != c.transitions || res.Depth != c.depth {
			t.Errorf("hosts=%d lines=%d pipm=%v: %d/%d/%d states/transitions/depth, want %d/%d/%d",
				c.hosts, c.lines, c.pipm, res.States, res.Transitions, res.Depth,
				c.states, c.transitions, c.depth)
		}
		if !res.DeadlockFree {
			t.Errorf("hosts=%d lines=%d pipm=%v: deadlock reported", c.hosts, c.lines, c.pipm)
		}
	}
}

// dfsCounts explores m's transition system depth-first, independently of
// Run's breadth-first engine, and returns the reachable-state and
// transition counts.
func dfsCounts(m *model) (states, transitions int) {
	seen := map[State]struct{}{initialState(): {}}
	stack := []State{initialState()}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ev := range m.enabled(nil, &cur) {
			next, _ := m.apply(cur, ev)
			transitions++
			if _, ok := seen[next]; !ok {
				seen[next] = struct{}{}
				stack = append(stack, next)
			}
		}
	}
	return len(seen), transitions
}

// The 1-line instances must agree exactly with the sequential 1-line
// checker's counts (measured on that checker and pinned here) and with an
// independent depth-first exploration of the same transition function.
func TestParallelMatchesSequentialOnSmallInstances(t *testing.T) {
	for _, c := range []struct {
		hosts               int
		pipm                bool
		states, transitions int
	}{
		{2, false, 6, 30},
		{2, true, 52, 322},
		{3, false, 11, 81},
		{3, true, 115, 996},
	} {
		res, v := Run(Options{Hosts: c.hosts, Lines: 1, PIPM: c.pipm})
		if v != nil {
			t.Fatalf("hosts=%d pipm=%v: %v", c.hosts, c.pipm, v)
		}
		if res.States != c.states || res.Transitions != c.transitions {
			t.Errorf("hosts=%d pipm=%v: %d states, %d transitions; sequential checker %d, %d",
				c.hosts, c.pipm, res.States, res.Transitions, c.states, c.transitions)
		}
		states, transitions := dfsCounts(&model{hosts: c.hosts, lines: 1, pipm: c.pipm})
		if res.States != states || res.Transitions != transitions {
			t.Errorf("hosts=%d pipm=%v: BFS %d states, %d transitions; DFS %d, %d",
				c.hosts, c.pipm, res.States, res.Transitions, states, transitions)
		}
	}
}

// The counts of the 3-host, 2-line instance must not depend on how the
// space is explored: repeated breadth-first runs and a depth-first
// exploration all agree.
func TestParallelResultsIndependentOfWorkerCount(t *testing.T) {
	opt := Options{Hosts: 3, Lines: 2, PIPM: true}
	base, v := Run(opt)
	if v != nil {
		t.Fatalf("%+v: %v", opt, v)
	}
	again, _ := Run(opt)
	if again != base {
		t.Errorf("repeated run %+v != first run %+v", again, base)
	}
	states, transitions := dfsCounts(&model{hosts: opt.Hosts, lines: opt.Lines, pipm: opt.PIPM})
	if states != base.States || transitions != base.Transitions {
		t.Errorf("DFS (%d states, %d transitions) != BFS (%d, %d)",
			states, transitions, base.States, base.Transitions)
	}
}

func TestParallelFourHostsTwoLines(t *testing.T) {
	// The largest instance: 4 hosts, 2 lines of one page coupled through
	// promote/revoke.
	res, v := Run(Options{Hosts: 4, Lines: 2, PIPM: true})
	if v != nil {
		t.Fatalf("4 hosts / 2 lines: %v", v)
	}
	one, _ := Run(Options{Hosts: 4, Lines: 1, PIPM: true})
	if res.States <= one.States {
		t.Fatalf("2-line space (%d) not larger than 1-line (%d)", res.States, one.States)
	}
	t.Logf("4 hosts: 1 line %d states, 2 lines %d states (%d transitions, depth %d)",
		one.States, res.States, res.Transitions, res.Depth)
}

// walk drives m from s through evs, failing the test on a stale read or a
// broken invariant after any step.
func walk(t *testing.T, m *model, s State, evs ...Event) State {
	t.Helper()
	for _, ev := range evs {
		var stale bool
		s, stale = m.apply(s, ev)
		if stale {
			t.Fatalf("stale read at %v", ev)
		}
		if rule := m.checkInvariants(&s); rule != "" {
			t.Fatalf("invariant %q broken at %v: %+v", rule, ev, s)
		}
	}
	return s
}

func TestPIPMReachesMigratedStates(t *testing.T) {
	// Drive a concrete scenario through the transition function and check
	// the interesting states are actually exercised: promote → write →
	// evict (incremental migration, I') → re-read (ME) → inter-host read
	// (migrate back).
	m := &model{hosts: 2, lines: 1, pipm: true}
	s := walk(t, m, initialState(), Event{EvPromote, 0, 0})
	if s.PageOwn != 0 {
		t.Fatal("promote failed")
	}
	s = walk(t, m, s, Event{EvWrite, 0, 0})
	if s.Lines[0].Cache[0] != M {
		t.Fatalf("cache[0] = %v, want M", s.Lines[0].Cache[0])
	}
	s = walk(t, m, s, Event{EvEvict, 0, 0})
	if ln := s.Lines[0]; ln.BitOwner != 0 || ln.Cache[0] != I || !ln.LocalUTD {
		t.Fatalf("incremental migration failed: %+v", s)
	}
	s = walk(t, m, s, Event{EvRead, 0, 0})
	if s.Lines[0].Cache[0] != ME {
		t.Fatalf("I' re-read gave %v, want ME", s.Lines[0].Cache[0])
	}
	s = walk(t, m, s, Event{EvRead, 1, 0})
	ln := s.Lines[0]
	if ln.BitOwner != none {
		t.Fatalf("inter-host read did not migrate back: %+v", s)
	}
	if ln.Cache[0] != S || ln.Cache[1] != S {
		t.Fatalf("case ⑥ should leave both hosts in S: %+v", s)
	}
	if !ln.CXLUTD {
		t.Fatal("migrate-back did not update CXL memory")
	}
}

func TestPIPMCase2PureIPrime(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: true}
	s := walk(t, m, initialState(), Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0})
	// Line is I' at host 0 (not cached). Host 1 reads: case ② — requester
	// fills M, bit clears, CXL updated.
	s2, stale := m.apply(s, Event{EvRead, 1, 0})
	if stale {
		t.Fatal("case ② returned stale data")
	}
	if ln := s2.Lines[0]; ln.Cache[1] != M || ln.BitOwner != none || !ln.CXLUTD {
		t.Fatalf("case ② end state: %+v", s2)
	}
}

func TestPIPMCase5InterWriteInvalidatesME(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: true}
	s := walk(t, m, initialState(), Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0},
		Event{EvRead, 0, 0})
	if s.Lines[0].Cache[0] != ME {
		t.Fatalf("setup failed: %+v", s)
	}
	s2, stale := m.apply(s, Event{EvWrite, 1, 0})
	if stale {
		t.Fatal("case ⑤ read stale data")
	}
	ln := s2.Lines[0]
	if ln.Cache[0] != I || ln.Cache[1] != M || ln.BitOwner != none {
		t.Fatalf("case ⑤ end state: %+v", s2)
	}
	if !ln.CacheUTD[1] || ln.CXLUTD || ln.LocalUTD {
		t.Fatalf("after inter-write, only the writer may be latest: %+v", s2)
	}
}

func TestRevokeRestoresCXLBacking(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: true}
	s := walk(t, m, initialState(), Event{EvPromote, 0, 0}, Event{EvWrite, 0, 0}, Event{EvEvict, 0, 0})
	s2, _ := m.apply(s, Event{EvRevoke, 0, 0})
	if s2.PageOwn != none || s2.Lines[0].BitOwner != none {
		t.Fatalf("revoke left ownership: %+v", s2)
	}
	if !s2.Lines[0].CXLUTD {
		t.Fatal("revoke lost the latest value")
	}
	// Reading from CXL afterwards must be fresh.
	s3, stale := m.apply(s2, Event{EvRead, 1, 0})
	if stale || s3.Lines[0].Cache[1] != S {
		t.Fatalf("post-revoke read: stale=%v state=%+v", stale, s3)
	}
}

// Replay the page coupling of the 2-line model: promote → write/evict on
// both lines → revoke must return BOTH lines' bits.
func TestTwoLineRevokeReturnsAllBits(t *testing.T) {
	m := &model{hosts: 4, lines: 2, pipm: true}
	s := walk(t, m, initialState(),
		Event{EvPromote, 1, 0},
		Event{EvWrite, 1, 0},
		Event{EvEvict, 1, 0}, // line 0 → I' at host 1
		Event{EvWrite, 1, 1},
		Event{EvEvict, 1, 1}, // line 1 → I' at host 1
	)
	if s.Lines[0].BitOwner != 1 || s.Lines[1].BitOwner != 1 {
		t.Fatalf("incremental migration missed a line: %+v", s)
	}
	s, _ = m.apply(s, Event{EvRevoke, 1, 0})
	if rule := m.checkInvariants(&s); rule != "" {
		t.Fatalf("invariant %q broken after revoke: %+v", rule, s)
	}
	if s.PageOwn != none {
		t.Fatalf("revoke left page owned: %+v", s)
	}
	for l := 0; l < 2; l++ {
		if s.Lines[l].BitOwner != none || !s.Lines[l].CXLUTD {
			t.Fatalf("line %d not returned to CXL: %+v", l, s.Lines[l])
		}
	}
	// Reads from any host must now be fresh.
	for h := 0; h < 4; h++ {
		if _, stale := m.apply(s, Event{EvRead, h, 0}); stale {
			t.Fatalf("post-revoke read stale at host %d", h)
		}
	}
}

func TestCheckerDetectsInvariantViolations(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: true}
	state := func(ln Line, pageOwn int8) State {
		s := initialState()
		s.Lines[0] = ln
		s.PageOwn = pageOwn
		return s
	}
	cases := []struct {
		name string
		st   State
		want string
	}{
		{"two writers", state(Line{Cache: [MaxHosts]CacheState{M, M}, CacheUTD: [MaxHosts]bool{true, true}, BitOwner: none}, none), "SWMR"},
		{"writer+reader", state(Line{Cache: [MaxHosts]CacheState{M, S}, CacheUTD: [MaxHosts]bool{true, true}, BitOwner: none}, none), "SWMR"},
		{"stale owner", state(Line{Cache: [MaxHosts]CacheState{M}, BitOwner: none, CXLUTD: true}, none), "owner-holds-latest"},
		{"stale sharer", state(Line{Cache: [MaxHosts]CacheState{S}, BitOwner: none, CXLUTD: true}, none), "sharers-clean"},
		{"orphan ME", state(Line{Cache: [MaxHosts]CacheState{ME}, CacheUTD: [MaxHosts]bool{true}, BitOwner: none}, none), "ME-implies-migrated-here"},
		{"bit outside page", state(Line{BitOwner: 0, CXLUTD: true}, 1), "bit-consistency"},
		{"value lost", state(Line{BitOwner: none}, none), "value-lost"},
	}
	for _, c := range cases {
		rule := m.checkInvariants(&c.st)
		if !strings.Contains(rule, strings.Split(c.want, ":")[0]) {
			t.Errorf("%s: got rule %q, want %q", c.name, rule, c.want)
		}
	}
}

// A deliberately broken protocol variant must be caught: skipping sharer
// invalidation on write upgrade leaves stale S copies that a later read
// observes. We emulate the bug by hand-driving the transition system.
func TestCheckerWouldCatchMissingInvalidation(t *testing.T) {
	m := &model{hosts: 2, lines: 1, pipm: false}
	s := walk(t, m, initialState(), Event{EvRead, 0, 0}, Event{EvRead, 1, 0}) // both S
	// Buggy upgrade: host 0 takes M without invalidating host 1.
	ln := &s.Lines[0]
	ln.Cache[0] = M
	for g := range ln.CacheUTD {
		ln.CacheUTD[g] = false
	}
	ln.CacheUTD[0] = true
	ln.CXLUTD = false
	// Host 1 still thinks it has a valid S copy.
	if rule := m.checkInvariants(&s); !strings.Contains(rule, "SWMR") && !strings.Contains(rule, "sharers-clean") {
		t.Fatalf("broken state not detected: rule=%q state=%+v", rule, s)
	}
	// And the read itself would be stale.
	if stale := m.read(ln, 1); !stale {
		t.Fatal("stale sharer read not flagged")
	}
}

// Inconsistent states of the largest instance must be flagged on either
// line.
func TestParallelDetectsSeededViolations(t *testing.T) {
	m := &model{hosts: 4, lines: 2, pipm: true}
	bad := initialState()
	bad.Lines[0].Cache[0] = M
	bad.Lines[0].Cache[2] = M
	bad.Lines[0].CacheUTD[0] = true
	bad.Lines[0].CacheUTD[2] = true
	if rule := m.checkInvariants(&bad); rule == "" {
		t.Fatal("two-writer state not flagged")
	}

	lost := initialState()
	lost.Lines[1].CXLUTD = false
	if rule := m.checkInvariants(&lost); rule == "" {
		t.Fatal("value-lost state not flagged")
	}
}

// A violation's witness is the BFS tree path to the failing state, in
// order, and replays to it.
func TestViolationWitnessReplays(t *testing.T) {
	m := &model{hosts: 2, lines: 2, pipm: true}
	path := []Event{{EvPromote, 1, 0}, {EvWrite, 1, 1}, {EvEvict, 1, 1}}
	nodes := []node{{state: initialState(), parent: -1}}
	for i, ev := range path {
		next, _ := m.apply(nodes[i].state, ev)
		nodes = append(nodes, node{state: next, parent: i, via: ev, depth: i + 1})
	}
	v := m.violation(nodes, len(path), "rule")
	if len(v.Path) != len(path) {
		t.Fatalf("witness %v, want %v", v.Path, path)
	}
	for i := range path {
		if v.Path[i] != path[i] {
			t.Fatalf("witness %v, want %v", v.Path, path)
		}
	}
	if got := walk(t, m, initialState(), v.Path...); got != v.State {
		t.Fatalf("witness replays to %+v, reported %+v", got, v.State)
	}
}

func TestEventAndStateStrings(t *testing.T) {
	if ME.String() != "ME" || I.String() != "I" {
		t.Fatal("CacheState strings wrong")
	}
	e := Event{EvWrite, 1, 0}
	if e.String() != "Write(h1,l0)" {
		t.Fatalf("Event.String = %q", e.String())
	}
	if s := (Event{EvRevoke, 2, 0}).String(); s != "Revoke(h2)" {
		t.Fatalf("page Event.String = %q", s)
	}
	v := &Violation{Rule: "x", Path: []Event{e}}
	if !strings.Contains(v.Error(), "x") {
		t.Fatal("Violation.Error missing rule")
	}
}

func TestPRunPanicsOnBadInstance(t *testing.T) {
	for _, opt := range []Options{
		{Hosts: 1, Lines: 1},
		{Hosts: 5, Lines: 1},
		{Hosts: 2, Lines: 0},
		{Hosts: 2, Lines: 3},
		{Hosts: 4}, // Lines is not defaulted
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", opt)
				}
			}()
			Run(opt)
		}()
	}
}

func TestRunPanicsOnBadHosts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Hosts=1")
		}
	}()
	Run(Options{Hosts: 1, Lines: 1})
}
