package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipm/internal/harness"
	"pipm/internal/migration"
)

// benchmarkFile is the subset of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEmitsEveryMetric runs every workload on a tiny budget, untraced
// and traced, and checks that the result line passes its checks and names
// exactly the metrics BENCHMARK.json lists, with the same units.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 256-host machines")
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for trace, want := range map[string][]benchMetric{"0": bf.EndToEnd, "1": bf.PerLayer} {
			w, trace, want := w, trace, want
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", trace,
					"--root", "..", "--workdir", t.TempDir(), "--records-div", "50", "--warm", "2", "--fetches", "20"}
				if code := cli(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
				}
			})
		}
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"--workload", "nope", "--root", ".."}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
	stdout.Reset()
	if code := cli([]string{"--workload", "quick4", "--root", t.TempDir()}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("missing golden files: exit %d, stdout %q", code, stdout.String())
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile({3,1,2}, 50) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := mean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); got < 4-1e-12 || got > 4+1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1.5}); got != 1.5 {
		t.Errorf("geomean(1.5) = %v", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	runs := []runSpec{
		{scheme: migration.Native, cfg: harness.QuickOptions().Cfg},
		{scheme: migration.PIPM, cfg: harness.QuickOptions().Cfg},
	}
	res := []harness.Result{{ExecTime: 300}, {ExecTime: 100}}
	if got := pipmSpeedup(runs, res); got < 3-1e-12 || got > 3+1e-12 {
		t.Errorf("pipmSpeedup = %v, want 3", got)
	}
}

// TestPerturbedDigestFails checks that the gate counts a Result that
// differs from its golden digest, or from an earlier execution of its key,
// as a failure.
func TestPerturbedDigestFails(t *testing.T) {
	res := harness.Result{Workload: "pr", Scheme: migration.PIPM, ExecTime: 1000, Instructions: 42}
	const key = "k1"
	g := newGate(map[string]string{key: harness.DigestResult(res)})
	g.checkResult("run", key, res, nil)
	if g.attempted != 1 || g.failed != 0 {
		t.Fatalf("matching digest: attempted %d failed %d", g.attempted, g.failed)
	}
	bad := res
	bad.ExecTime++
	g.checkResult("run", key, bad, nil)
	if g.failed != 1 {
		t.Fatalf("perturbed Result against its golden digest: failed %d, want 1", g.failed)
	}

	g = newGate(map[string]string{})
	g.checkResult("run", "k2", res, nil)
	g.checkResult("traced run", "k2", bad, nil)
	if g.failed != 1 {
		t.Fatalf("perturbed re-execution: failed %d, want 1", g.failed)
	}

	g = newGate(map[string]string{})
	cfg := harness.QuickOptions().Cfg
	wl := harness.QuickOptions().Workloads[0]
	runs := []runSpec{{wl: wl, cfg: cfg, scheme: migration.Native}, {wl: wl, cfg: cfg, scheme: migration.PIPM}}
	g.checkInvariance(runs, []harness.Result{{Instructions: 42}, {Instructions: 43}})
	if g.failed != 1 {
		t.Fatalf("instruction count differing across schemes: failed %d, want 1", g.failed)
	}
}

// TestResultOfMatchesRunOne checks the benchmark's Result assembly against
// the harness's own run function on a small run of every scheme family.
func TestResultOfMatchesRunOne(t *testing.T) {
	o := harness.QuickOptions()
	for _, k := range []migration.Kind{migration.Native, migration.PIPM, migration.Nomad, migration.HWStatic} {
		r := newRunSpec(o.Workloads[0], o.Cfg, k, 2000, 3)
		e := execute(r, nil, -1)
		if e.err != nil {
			t.Fatal(e.err)
		}
		want, err := harness.RunOne(r.cfg, r.wl, k, r.records, r.seed)
		if err != nil {
			t.Fatal(err)
		}
		if harness.DigestResult(e.res) != harness.DigestResult(want) {
			t.Errorf("%v: Result differs from harness.RunOne:\n got %+v\nwant %+v", k, e.res, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "a", Parent: 0, Start: 1 * ms, End: 4 * ms},
		{Name: "b", Parent: 0, Start: 3 * ms, End: 6 * ms}, // overlaps a by 1ms
		{Name: "a", Parent: 0, Start: 8 * ms, End: 9 * ms},
		{Name: "other", Parent: -1, Start: 10 * ms, End: 12 * ms},
		{Name: "a", Parent: 4, Start: 10 * ms, End: 11 * ms}, // under another root
	}
	got := selfTimes(spans, "run")
	// The children cover [1,6] and [8,9]: 6ms of the root's 10ms.
	if got["run"].self != 4*ms || got["run"].total != 10*ms {
		t.Errorf("run: self %v total %v, want 4ms 10ms", got["run"].self, got["run"].total)
	}
	if got["a"].self != 4*ms || got["a"].count != 2 {
		t.Errorf("a: self %v count %d, want 4ms 2", got["a"].self, got["a"].count)
	}
}
