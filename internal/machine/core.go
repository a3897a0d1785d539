package machine

import (
	"pipm/internal/cache"
	"pipm/internal/sim"
	"pipm/internal/stats"
	"pipm/internal/tlb"
	"pipm/internal/trace"
)

// coreState is one simulated core: a trace cursor plus the bounded-MLP
// issue window. Non-memory instructions retire Width per cycle; memory ops
// enter the window and complete asynchronously at the time the hierarchy
// walk computes; when the window is full the core stalls until the oldest
// outstanding op completes, and that wait is attributed to the oldest op's
// service class (the Fig. 12 ledger).
type coreState struct {
	host *host
	id   int
	rd   trace.Reader
	l1   *cache.Cache
	tlb  *tlb.TLB // nil unless Config.TLBEntries > 0

	// step is the core's engine closure, bound once at Run so the
	// per-quantum re-schedule never allocates.
	step func()

	clk sim.Time // next-issue time
	// window is a fixed-capacity FIFO ring of in-flight ops (len == MSHRs,
	// allocated at build time): winHead indexes the oldest entry, winLen
	// counts occupancy. A plain append/reslice slice here erodes its
	// backing array and reallocates on the hot path.
	window  []pending
	winHead int
	winLen  int
	// lastMem is the previous memory op's completion time and class;
	// dependent records (pointer chases) issue no earlier than this.
	lastMem      sim.Time
	lastMemClass stats.Class
	// pendingRec holds a record whose dependence stall crossed the quantum
	// boundary; it issues first at the next step (front-end and stall
	// already accounted). Stored by value: boxing it behind a pointer
	// allocates once per quantum-crossing record.
	pendingRec    trace.Record
	hasPendingRec bool

	// Stalls injected by kernel migration, applied at the next step.
	pendingMgmt     sim.Time
	pendingTransfer sim.Time

	instr  int64
	memOps int64
	finish sim.Time
	done   bool

	stall [6]sim.Time // indexed by stats.Class
}

type pending struct {
	done  sim.Time
	class stats.Class
}

// popOldest removes and returns the window's oldest in-flight op.
func (c *coreState) popOldest() pending {
	p := c.window[c.winHead]
	c.winHead++
	if c.winHead == len(c.window) {
		c.winHead = 0
	}
	c.winLen--
	return p
}

// pushOp records an in-flight op; the caller guarantees winLen < len(window).
func (c *coreState) pushOp(p pending) {
	i := c.winHead + c.winLen
	if i >= len(c.window) {
		i -= len(c.window)
	}
	c.window[i] = p
	c.winLen++
}

// maxBatch bounds records processed per engine event so one core cannot
// starve the event loop within a quantum.
const maxBatch = 4096

// stepCore advances one core by up to a time quantum of trace records.
func (m *Machine) stepCore(c *coreState) {
	if c.done {
		return
	}
	now := sim.Max(c.clk, m.eng.Now())

	// Apply migration-injected stalls.
	if c.pendingMgmt > 0 {
		m.col.Host(c.host.id).MgmtStall += c.pendingMgmt
		now += c.pendingMgmt
		c.pendingMgmt = 0
	}
	if c.pendingTransfer > 0 {
		m.col.Host(c.host.id).TransferStall += c.pendingTransfer
		now += c.pendingTransfer
		c.pendingTransfer = 0
	}

	deadline := now + m.quantum
	for n := 0; n < maxBatch && now < deadline; n++ {
		// Retire completed ops; when the window is full, stall to the
		// oldest completion. A stall that crosses the quantum boundary
		// yields back to the engine so other cores' earlier walks acquire
		// shared resources first — otherwise one core's jump ahead creates
		// spurious FCFS queueing for everyone behind it.
		for c.winLen > 0 && c.window[c.winHead].done <= now {
			c.popOldest()
		}
		if c.winLen >= m.cfg.MSHRs {
			oldest := c.popOldest()
			c.stall[oldest.class] += oldest.done - now
			now = oldest.done
			continue // re-check the deadline before issuing
		}

		var rec trace.Record
		if c.hasPendingRec {
			rec = c.pendingRec
			c.hasPendingRec = false
		} else {
			var ok bool
			rec, ok = c.rd.Next()
			if !ok {
				c.done = true
				m.liveCores--
				// Drain: the core finishes when its last outstanding op does.
				c.finish = now
				for c.winLen > 0 {
					c.finish = sim.Max(c.finish, c.popOldest().done)
				}
				m.recordStalls(c)
				return
			}
			c.instr += int64(rec.Gap) + 1
			c.memOps++

			// Front-end: (gap + the op itself) instructions at Width/cycle.
			// A gap that blows past the quantum (a compute phase) yields to
			// the engine so the access issues against up-to-date state.
			cycles := (int64(rec.Gap) + 1 + m.width - 1) / m.width
			now += m.clock.Cycles(cycles)
			if now >= deadline {
				c.pendingRec = rec
				c.hasPendingRec = true
				break
			}
		}

		// Address dependence: a pointer chase cannot issue before the
		// producing load returns. This is the true MLP limiter. Like window
		// stalls, a dependence stall crossing the quantum yields to the
		// engine so other cores' earlier walks go first. (Re-checked for
		// resumed records: lastMem cannot have advanced while stalled.)
		if rec.Dep && c.lastMem > now {
			c.stall[c.lastMemClass] += c.lastMem - now
			if c.lastMem >= deadline {
				c.pendingRec = rec
				c.hasPendingRec = true
				now = c.lastMem
				break
			}
			now = c.lastMem
		}

		done, class := m.access(now, c, rec)
		if m.auditPending {
			// Paranoid mode: a protocol transition happened inside this
			// access; sweep now that the state is consistent again.
			m.auditPending = false
			m.auditSweep(false)
		}
		hs := m.col.Host(c.host.id)
		hs.LatSum[class] += done - now
		m.telLat[class].Observe(done - now)
		if done > now {
			c.pushOp(pending{done: done, class: class})
		}
		c.lastMem, c.lastMemClass = done, class
	}
	c.clk = now
	m.eng.At(now, c.step)
}

// recordStalls folds a finished core's attribution ledger into host stats.
func (m *Machine) recordStalls(c *coreState) {
	st := m.col.Host(c.host.id)
	for cl, t := range c.stall {
		st.Stall[stats.Class(cl)] += t
	}
}
