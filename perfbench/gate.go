package main

import (
	"fmt"
	"io"

	"pipm/internal/harness"
)

// gate is the benchmark's correctness check. Every checked operation counts
// as attempted; one that errored or whose output is wrong counts as failed.
// A run's Result must digest as the repository's golden files pin it
// whenever its key is pinned, and as every earlier execution of the same key
// in this process (untraced, traced, warm, fetched).
type gate struct {
	golden    map[string]string // pinned key → digest
	seen      map[string]string // key → digest of its first execution here
	attempted int
	failed    int
	notes     []string
}

func newGate(golden map[string]string) *gate {
	return &gate{golden: golden, seen: map[string]string{}}
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.notes) < 20 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// checkResult checks one execution of key that produced res (or err).
func (g *gate) checkResult(what, key string, res harness.Result, err error) {
	g.attempted++
	if err != nil {
		g.fail("%s %.12s: %v", what, key, err)
		return
	}
	d := harness.DigestResult(res)
	if want, ok := g.golden[key]; ok {
		if d != want {
			g.fail("%s %.12s (%s/%v): digest %.12s != golden %.12s", what, key, res.Workload, res.Scheme, d, want)
			return
		}
	}
	if first, ok := g.seen[key]; ok && d != first {
		g.fail("%s %.12s (%s/%v): digest %.12s != earlier execution %.12s", what, key, res.Workload, res.Scheme, d, first)
		return
	} else if !ok {
		g.seen[key] = d
	}
}

// checkInvariance checks that every scheme of a cell executed the same
// instruction count: placement changes timing, never the program. The runs
// were counted as attempted when their Results were checked.
func (g *gate) checkInvariance(runs []runSpec, res []harness.Result) {
	ref := map[string]int64{}
	for i, r := range runs {
		want, ok := ref[r.cell()]
		if !ok {
			ref[r.cell()] = res[i].Instructions
			continue
		}
		if res[i].Instructions != want {
			g.fail("%s/%v: %d instructions, the cell's first scheme executed %d",
				r.cell(), r.scheme, res[i].Instructions, want)
		}
	}
}

// check records one operation that has no Result to digest.
func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.fail(format, args...)
	}
}

func (g *gate) report(w io.Writer) {
	for _, n := range g.notes {
		fmt.Fprintln(w, "FAIL", n)
	}
}
