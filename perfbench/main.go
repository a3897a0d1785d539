// Command perfbench is the repository benchmark. It runs one named workload
// — a fixed sweep of simulations — in closed loop on one engine worker for a
// time budget, checks every simulated Result, and prints its metrics as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload quick4 --seed 1 --seconds 30 --trace 0
//
// run from the repository root. With --trace 0 it reports the end-to-end
// metrics (host CPU time, throughput, set-up time, memory, warm-store and
// fetch latency, and the simulated PIPM speed-up); with --trace 1 it records spans around every call
// into a layer and reports the per-layer metrics instead. README.md lists
// every metric and the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	root       string // repository root holding the golden digests
	workdir    string // scratch space for result stores
	recordsDiv int64  // divides every run's record budget (tests only)
	warm       int    // warm resubmissions
	fetches    int    // closed-loop fetches
}

// cli parses args, runs the benchmark and prints its result. It returns 0
// when every check passed, 1 when the benchmark ran but a check failed, and
// 2 when it could not run (bad flags, missing sources); only the first two
// print a result line.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: quick4, scale256 or serve-store")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; 0 means 1, the seed the golden digests pin")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement budget; passes repeat until it is spent")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"),
		"scratch directory; the traced run writes its spans to spans-<workload>.json here")
	fs.Int64Var(&o.recordsDiv, "records-div", 1, "divide every record budget by this (smoke tests)")
	fs.IntVar(&o.warm, "warm", 10, "least warm-store resubmissions after each pass; they also take at least a thirtieth of -seconds")
	fs.IntVar(&o.fetches, "fetches", 4000, "least closed-loop GET /v1/runs/{key} requests after each pass; they also take at least a thirtieth of -seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.seed == 0 {
		o.seed = 1
	}
	if o.recordsDiv < 1 || o.warm < 1 || o.fetches < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: -records-div, -warm and -fetches must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	rep, err := runBench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named values; a non-finite value is recorded as 0 so
// the result line always stays valid JSON.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runBench(o options, log io.Writer) (report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (want quick4, scale256 or serve-store)", o.workload)
	}
	golden, err := loadGolden(o.root)
	if err != nil {
		return report{}, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)

	b := &bench{o: o, w: w, runs: w.runs(o.seed, o.recordsDiv), g: newGate(golden), dir: dir, log: log}
	if o.trace {
		b.tr = newTracer()
	}
	b.lb, err = startLoopback(b.tr)
	if err != nil {
		return report{}, err
	}
	defer b.lb.stop()

	ms := metricSet{}
	if err := b.measure(ms); err != nil {
		return report{}, err
	}
	if o.seed == 1 && o.recordsDiv == 1 {
		// At seed 1 every run is a pinned one; a key the golden files lack
		// means the sweep drifted from the one they pin.
		for _, r := range b.runs {
			_, ok := golden[r.key]
			b.g.check(ok, "seed 1: run %s/%v has no golden digest (key %.12s)", r.cell(), r.scheme, r.key)
		}
	}
	b.g.report(log)
	if o.trace {
		ms.set("failed_frac", "ratio", ratio(float64(b.g.failed), float64(b.g.attempted)))
		path := filepath.Join(o.workdir, "spans-"+o.workload+".json")
		if err := b.tr.write(path); err != nil {
			return report{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "spans written to %s\n", path)
	}
	if b.g.attempted == 0 {
		return report{}, errors.New("no operation was checked")
	}
	return report{Correct: b.g.failed == 0, Attempted: b.g.attempted, Failed: b.g.failed, Metrics: ms}, nil
}

// since formats an elapsed time for the progress log.
func since(t time.Time) string { return time.Since(t).Round(time.Millisecond).String() }
