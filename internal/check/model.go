// Package check is an explicit-state model checker for the PIPM coherence
// protocol, reproducing the paper's Murφ verification (§5.1.4): exhaustive
// enumeration of a small protocol instance proving the Single-Writer
// Multiple-Reader invariant, per-location sequential consistency (every
// read returns the latest write), and absence of stuck states.
//
// The model is up to MaxLines cache lines of one shared page, accessed by
// up to MaxHosts hosts. The lines are coupled through the page-ownership
// state: partial migration is a page decision (promote/revoke act on every
// line at once) while incremental migration flips per-line in-memory bits.
// Two lines is the smallest instance where that coupling shows, and four
// hosts the smallest where two disjoint host pairs race for one page. Each
// protocol request is atomic (the paper's implementation serializes request
// handling with a lock-based scheme, so atomic transitions are faithful).
// Versions are abstracted to one bit per storage location — "holds the
// latest value" — which bounds the state space while preserving exactly the
// property SC per location needs.
package check

import "fmt"

// Instance bounds. They size the fixed arrays of State, so widening either
// is a representation change rather than an option.
const (
	MaxHosts = 4
	MaxLines = 2
)

// CacheState is a host's state for one line (MSI + PIPM's ME).
type CacheState uint8

const (
	I CacheState = iota
	S
	M
	ME
)

func (c CacheState) String() string {
	return [...]string{"I", "S", "M", "ME"}[c]
}

// none marks "no host" in owner fields.
const none = -1

// Line is one cache line's global protocol state.
type Line struct {
	Cache    [MaxHosts]CacheState // per-host cache state (unused slots stay I)
	CacheUTD [MaxHosts]bool       // cache copy holds the latest version
	CXLUTD   bool                 // CXL memory holds the latest version
	LocalUTD bool                 // the bit-owner's local memory holds the latest
	BitOwner int8                 // host whose local DRAM holds the line (I'), or none
}

// State is one global protocol state: the lines of the shared page plus the
// host the page is partially migrated to (or none).
type State struct {
	Lines   [MaxLines]Line
	PageOwn int8
}

func initialState() State {
	s := State{PageOwn: none}
	for l := range s.Lines {
		s.Lines[l].CXLUTD = true
		s.Lines[l].BitOwner = none
	}
	return s
}

// Event is a protocol stimulus. Promote and Revoke are page events; Line is
// meaningful only for Read/Write/Evict.
type Event struct {
	Kind EventKind
	Host int
	Line int
}

// EventKind enumerates stimuli.
type EventKind uint8

const (
	EvRead EventKind = iota
	EvWrite
	EvEvict
	EvPromote
	EvRevoke
)

func (k EventKind) String() string {
	return [...]string{"Read", "Write", "Evict", "Promote", "Revoke"}[k]
}

func (e Event) String() string {
	if e.Kind == EvPromote || e.Kind == EvRevoke {
		return fmt.Sprintf("%v(h%d)", e.Kind, e.Host)
	}
	return fmt.Sprintf("%v(h%d,l%d)", e.Kind, e.Host, e.Line)
}

// Violation describes an invariant failure with its witness path.
type Violation struct {
	Rule  string
	State State
	Path  []Event
}

func (v *Violation) Error() string {
	return fmt.Sprintf("check: %s violated after %v (state %+v)", v.Rule, v.Path, v.State)
}

// Options selects the protocol variant and instance size.
type Options struct {
	Hosts int  // 2..MaxHosts
	Lines int  // 1..MaxLines lines of one shared page
	PIPM  bool // false = base MSI over CXL-DSM only (no migration events)
}

// Result summarizes a completed run.
type Result struct {
	States      int
	Transitions int
	Depth       int // BFS depth of the deepest reachable state
	// DeadlockFree is true when every reachable state has at least one
	// enabled event (always true here — reads are always enabled — but
	// reported for parity with the Murφ run).
	DeadlockFree bool
}

// Run exhaustively explores the protocol breadth-first and returns the
// first invariant violation, if any, with a minimal witness path.
func Run(opt Options) (Result, *Violation) {
	if opt.Hosts < 2 || opt.Hosts > MaxHosts {
		panic(fmt.Sprintf("check: Hosts must be 2..%d", MaxHosts))
	}
	if opt.Lines < 1 || opt.Lines > MaxLines {
		panic(fmt.Sprintf("check: Lines must be 1..%d", MaxLines))
	}
	m := &model{hosts: opt.Hosts, lines: opt.Lines, pipm: opt.PIPM}
	return m.run()
}

type model struct {
	hosts int
	lines int
	pipm  bool
}

type node struct {
	state  State
	parent int
	via    Event
	depth  int
}

func (m *model) run() (Result, *Violation) {
	start := initialState()
	seen := map[State]struct{}{start: {}}
	nodes := []node{{state: start, parent: -1}}
	res := Result{DeadlockFree: true}
	var events []Event

	for i := 0; i < len(nodes); i++ {
		cur := nodes[i].state
		res.States, res.Depth = len(nodes), nodes[i].depth
		if rule := m.checkInvariants(&cur); rule != "" {
			return res, m.violation(nodes, i, rule)
		}
		events = m.enabled(events[:0], &cur)
		if len(events) == 0 {
			res.DeadlockFree = false
			return res, m.violation(nodes, i, "deadlock: no enabled event")
		}
		for _, ev := range events {
			next, staleRead := m.apply(cur, ev)
			res.Transitions++
			if staleRead {
				v := m.violation(nodes, i, "SC-per-location: read returned a stale value")
				v.Path = append(v.Path, ev)
				v.State = next
				return res, v
			}
			if _, ok := seen[next]; !ok {
				seen[next] = struct{}{}
				nodes = append(nodes, node{state: next, parent: i, via: ev, depth: nodes[i].depth + 1})
			}
		}
	}
	return res, nil
}

func (m *model) violation(nodes []node, i int, rule string) *Violation {
	path := make([]Event, nodes[i].depth)
	for j := i; nodes[j].parent != -1; j = nodes[j].parent {
		path[nodes[j].depth-1] = nodes[j].via
	}
	return &Violation{Rule: rule, State: nodes[i].state, Path: path}
}

// checkInvariants returns the violated rule's name, or "".
func (m *model) checkInvariants(s *State) string {
	for l := 0; l < m.lines; l++ {
		ln := &s.Lines[l]
		writers, sharers := 0, 0
		for h := 0; h < m.hosts; h++ {
			switch ln.Cache[h] {
			case M, ME:
				writers++
				if !ln.CacheUTD[h] {
					return "owner-holds-latest: M/ME copy is stale"
				}
			case S:
				sharers++
				if !ln.CacheUTD[h] {
					return "sharers-clean: S copy is stale"
				}
			}
			if ln.Cache[h] == ME && (int(ln.BitOwner) != h || int(s.PageOwn) != h) {
				return "ME-implies-migrated-here"
			}
		}
		if writers > 1 {
			return "SWMR: two writers"
		}
		if writers == 1 && sharers > 0 {
			return "SWMR: writer coexists with readers"
		}
		if ln.BitOwner != none && ln.BitOwner != s.PageOwn {
			return "bit-consistency: in-memory bit outside the owning page"
		}
		// Liveness of the value: someone must hold the latest version.
		anyUTD := ln.CXLUTD || (ln.BitOwner != none && ln.LocalUTD)
		for h := 0; h < m.hosts; h++ {
			if ln.Cache[h] != I && ln.CacheUTD[h] {
				anyUTD = true
			}
		}
		if !anyUTD {
			return "value-lost: no location holds the latest version"
		}
	}
	return ""
}

// enabled appends the stimuli applicable in s to evs.
func (m *model) enabled(evs []Event, s *State) []Event {
	for l := 0; l < m.lines; l++ {
		for h := 0; h < m.hosts; h++ {
			evs = append(evs, Event{EvRead, h, l}, Event{EvWrite, h, l})
			if s.Lines[l].Cache[h] != I {
				evs = append(evs, Event{EvEvict, h, l})
			}
		}
	}
	if m.pipm {
		if s.PageOwn == none {
			for h := 0; h < m.hosts; h++ {
				evs = append(evs, Event{EvPromote, h, 0})
			}
		} else {
			evs = append(evs, Event{EvRevoke, int(s.PageOwn), 0})
		}
	}
	return evs
}

// apply executes one event atomically, returning the successor and whether
// a read observed a stale value.
func (m *model) apply(s State, ev Event) (State, bool) {
	h := ev.Host
	switch ev.Kind {
	case EvRead:
		stale := m.read(&s.Lines[ev.Line], h)
		return s, stale
	case EvWrite:
		stale := m.write(&s.Lines[ev.Line], h)
		return s, stale
	case EvEvict:
		m.evict(&s, &s.Lines[ev.Line], h)
		return s, false
	case EvPromote:
		s.PageOwn = int8(h)
		return s, false
	case EvRevoke:
		m.revoke(&s, h)
		return s, false
	}
	panic("check: unknown event")
}

func (m *model) read(ln *Line, h int) bool {
	switch ln.Cache[h] {
	case S, M, ME:
		return !ln.CacheUTD[h] // cache hit
	}
	// Miss paths.
	switch {
	case int(ln.BitOwner) == h:
		// Case ③: I' → ME, served from local memory.
		stale := !ln.LocalUTD
		ln.Cache[h] = ME
		ln.CacheUTD[h] = ln.LocalUTD
		return stale
	case ln.BitOwner != none:
		// Inter-host read of a migrated line.
		g := int(ln.BitOwner)
		if ln.Cache[g] == ME {
			// Case ⑥: owner downgrades ME→S, line migrates back, both
			// hosts share; CXL updated by the writeback.
			stale := !ln.CacheUTD[g]
			ln.Cache[g] = S
			ln.Cache[h] = S
			ln.CacheUTD[h] = ln.CacheUTD[g]
			ln.CXLUTD = ln.CacheUTD[g]
			ln.BitOwner = none
			return stale
		}
		// Case ②: pure I' — fetch from owner's local memory, write back to
		// CXL, requester caches in M (exclusive fill per the paper).
		stale := !ln.LocalUTD
		ln.CXLUTD = ln.LocalUTD
		ln.Cache[h] = M
		ln.CacheUTD[h] = ln.LocalUTD
		ln.BitOwner = none
		return stale
	}
	// Plain CXL-DSM MSI read.
	for g := 0; g < m.hosts; g++ {
		if g != h && ln.Cache[g] == M {
			// Owner forwards and downgrades; CXL updated.
			stale := !ln.CacheUTD[g]
			ln.Cache[g] = S
			ln.CXLUTD = ln.CacheUTD[g]
			ln.Cache[h] = S
			ln.CacheUTD[h] = ln.CacheUTD[g]
			return stale
		}
	}
	stale := !ln.CXLUTD
	ln.Cache[h] = S
	ln.CacheUTD[h] = ln.CXLUTD
	return stale
}

func (m *model) write(ln *Line, h int) bool {
	stale := false
	switch ln.Cache[h] {
	case M, ME:
		// Write hit with ownership.
	case S:
		// Upgrade: invalidate all other sharers.
		for g := 0; g < m.hosts; g++ {
			if g != h && ln.Cache[g] == S {
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			}
		}
		ln.Cache[h] = M
	case I:
		switch {
		case int(ln.BitOwner) == h:
			// Case ③ then write: fill from local memory into ME.
			stale = !ln.LocalUTD
			ln.Cache[h] = ME
		case ln.BitOwner != none:
			// Cases ②/⑤: pull the migrated line back, invalidating the
			// owner's copy; requester takes M.
			g := int(ln.BitOwner)
			if ln.Cache[g] == ME {
				stale = !ln.CacheUTD[g]
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			} else {
				stale = !ln.LocalUTD
			}
			ln.CXLUTD = true // migrate-back writeback (pre-write value)
			ln.BitOwner = none
			ln.Cache[h] = M
		default:
			// MSI write miss: invalidate every copy, take M.
			for g := 0; g < m.hosts; g++ {
				if g == h {
					continue
				}
				if ln.Cache[g] == M {
					stale = stale || !ln.CacheUTD[g]
				}
				ln.Cache[g] = I
				ln.CacheUTD[g] = false
			}
			ln.Cache[h] = M
		}
	}
	// The write makes h's copy the unique latest version.
	for g := range ln.CacheUTD {
		ln.CacheUTD[g] = false
	}
	ln.CacheUTD[h] = true
	ln.CXLUTD = false
	ln.LocalUTD = false
	return stale
}

func (m *model) evict(s *State, ln *Line, h int) {
	switch ln.Cache[h] {
	case S:
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	case M:
		if m.pipm && int(s.PageOwn) == h {
			// Case ①: incremental migration — the writeback lands in local
			// memory and the in-memory bit flips (M → I').
			ln.LocalUTD = ln.CacheUTD[h]
			ln.BitOwner = int8(h)
		} else {
			ln.CXLUTD = ln.CacheUTD[h]
		}
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	case ME:
		// Case ④: ME → I', dirty data back to local memory only.
		ln.LocalUTD = ln.CacheUTD[h]
		ln.Cache[h] = I
		ln.CacheUTD[h] = false
	}
}

// revoke returns every migrated block of the page to CXL memory (§4.2 ⑥):
// the local entry is dropped and the page is unowned again. It is a page
// event, so it acts on all lines at once.
func (m *model) revoke(s *State, h int) {
	for l := 0; l < m.lines; l++ {
		ln := &s.Lines[l]
		if int(ln.BitOwner) == h {
			ln.CXLUTD = ln.LocalUTD
			ln.LocalUTD = false
			ln.BitOwner = none
		}
		if ln.Cache[h] == ME {
			// A cached migrated block becomes an ordinary dirty CXL block.
			ln.Cache[h] = M
		}
	}
	s.PageOwn = none
}
