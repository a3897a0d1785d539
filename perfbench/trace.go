package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer. Spans of one run share its ID (the
// run key's short form); Parent indexes the enclosing span, -1 for a root.
// Bytes is the process-wide allocation during the span, exact because every
// spanned call runs on the benchmark's single worker.
type span struct {
	ID     string        `json:"id"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  uint64        `json:"bytes"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer is the untraced mode: every
// method is a no-op, so the untraced path pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index, -1 on a nil tracer.
func (t *tracer) start(id, name string, parent int) int {
	if t == nil {
		return -1
	}
	b := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(t.t0), Bytes: b})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	b := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	t.spans[i].Bytes = b - t.spans[i].Bytes
}

// layerTotal sums, over a set of spans, one name's self time (duration
// minus the union of its children's intervals), duration and allocated
// bytes.
type layerTotal struct {
	self  time.Duration
	total time.Duration
	bytes uint64
	count int
}

// totalsUnder sums the spans of the trees whose root span has one of the
// given names.
func (t *tracer) totalsUnder(roots ...string) map[string]layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans, roots...)
}

func selfTimes(spans []span, roots ...string) map[string]layerTotal {
	children := map[int][]span{}
	root := make([]int, len(spans)) // index of each span's root
	for i, s := range spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent] // a parent is recorded before its children
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	want := map[string]bool{}
	for _, r := range roots {
		want[r] = true
	}
	out := map[string]layerTotal{}
	for i, s := range spans {
		if !want[spans[root[i]].Name] {
			continue
		}
		lt := out[s.Name]
		lt.self += s.dur() - covered(s, children[i])
		lt.total += s.dur()
		lt.bytes += s.Bytes
		lt.count++
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the children's intervals
// cover, counting overlapping children once.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"perfbench-spans/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ---------------------------------------------------------------- runtime --

var sampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeWindow measures one pass from the Go runtime's side: bytes
// allocated, GC cycles and pause time, and the peak live heap — the largest
// heap a GC cycle marked reachable — sampled every millisecond by a
// goroutine that stop() ends. It starts by collecting and returning the
// free heap to the OS, so every pass begins from the same heap and pays for
// its own page faults, as a sweep in a fresh process would.
type runtimeWindow struct {
	alloc0, cycles0, pause0 uint64
	cpu0                    time.Duration
	peak                    uint64
	stopc, done             chan struct{}

	Alloc, Cycles, Peak uint64
	Pause, CPU          time.Duration
}

// cpuTime is the process's user plus system CPU time, every thread. Linux
// derives it from the scheduler's nanosecond run-time accounting, which
// leaves out time the virtual CPU was preempted by its host, so it is
// steadier than wall time on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startWindow() *runtimeWindow {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := readSamples()
	w := &runtimeWindow{
		alloc0: s[0].Value.Uint64(), cycles0: s[1].Value.Uint64(), pause0: ms.PauseTotalNs,
		cpu0:  cpuTime(),
		stopc: make(chan struct{}), done: make(chan struct{}),
	}
	go w.sample()
	return w
}

func (w *runtimeWindow) sample() {
	defer close(w.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for {
		select {
		case <-w.stopc:
			return
		case <-tick.C:
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
		}
	}
}

// stop ends the sampler, waits for it, and fills the exported totals.
func (w *runtimeWindow) stop() {
	w.CPU = cpuTime() - w.cpu0
	close(w.stopc)
	<-w.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := readSamples()
	w.Alloc = s[0].Value.Uint64() - w.alloc0
	w.Cycles = s[1].Value.Uint64() - w.cycles0
	w.Pause = time.Duration(ms.PauseTotalNs - w.pause0)
	w.Peak = max(w.peak, s[2].Value.Uint64())
}
