package pipm_test

// One testing.B benchmark per paper artefact (Tables 1–2, Figures 4–5 and
// 10–17) plus ablation benches for the design choices DESIGN.md §6 calls
// out. Each benchmark runs a reduced instance of its experiment per
// iteration and reports the figure's headline metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation at small
// scale. cmd/experiments produces the full-scale tables.

import (
	"fmt"
	"testing"

	"pipm"
	"pipm/internal/config"
)

// benchOptions is the reduced sweep every benchmark shares.
func benchOptions() pipm.SuiteOptions {
	o := pipm.QuickSuiteOptions()
	o.RecordsPerCore = 30_000
	return o
}

func benchRun(b *testing.B, wlName string, k pipm.Scheme) pipm.Result {
	b.Helper()
	o := benchOptions()
	wl, err := pipm.WorkloadByName(wlName)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipm.Run(o.Cfg, wl, k, o.RecordsPerCore, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkTable1Workloads(b *testing.B) {
	// Exercise every catalog generator end to end (trace generation only).
	o := benchOptions()
	am := config.NewAddressMap(&o.Cfg)
	for i := 0; i < b.N; i++ {
		for _, wl := range pipm.Workloads() {
			r := wl.NewReader(am, o.Cfg.Hosts, 0, 0, 5_000, 1)
			n := 0
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			if n != 5_000 {
				b.Fatalf("%s yielded %d records", wl.Name, n)
			}
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := pipm.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		if pipm.Table2(cfg) == "" {
			b.Fatal("empty rendering")
		}
	}
}

func BenchmarkFig4MigrationIntervals(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		nat, err := pipm.Run(o.Cfg, wl, pipm.Native, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		for _, scale := range []pipm.Time{10, 1} { // paper-equivalent 100ms, 10ms
			cfg := o.Cfg
			cfg.Kernel.Interval = o.Cfg.Kernel.Interval * scale
			res, err := pipm.Run(cfg, wl, pipm.Memtis, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if scale == 1 {
				b.ReportMetric(float64(res.ExecTime)/float64(nat.ExecTime), "normTime@10ms")
				b.ReportMetric(100*res.MgmtStallFrac, "mgmt%")
				b.ReportMetric(100*res.TransferFrac, "transfer%")
			}
		}
	}
}

func BenchmarkFig5HarmfulMigrations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "ycsb", pipm.Nomad)
		b.ReportMetric(100*res.HarmfulFrac, "harmful%")
	}
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nat := benchRun(b, "pr", pipm.Native)
		res := benchRun(b, "pr", pipm.PIPM)
		b.ReportMetric(pipm.Speedup(res, nat), "speedup")
	}
}

func BenchmarkFig11LocalHitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "pr", pipm.PIPM)
		b.ReportMetric(100*res.LocalHitRate, "localHit%")
	}
}

func BenchmarkFig12InterHostStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "pr", pipm.PIPM)
		b.ReportMetric(100*res.InterStallFrac, "interStall%")
	}
}

func BenchmarkFig13Footprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchRun(b, "pr", pipm.PIPM)
		b.ReportMetric(100*res.PageFootprintFrac, "pages%")
		b.ReportMetric(100*res.LineFootprintFrac, "lines%")
	}
}

func BenchmarkFig14LinkLatency(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("cc")
	for i := 0; i < b.N; i++ {
		for _, lat := range []pipm.Time{50 * pipm.Nanosecond, 100 * pipm.Nanosecond} {
			cfg := o.Cfg
			cfg.CXL.LinkLatency = lat
			nat, err := pipm.Run(cfg, wl, pipm.Native, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipm.Run(cfg, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if lat == 100*pipm.Nanosecond {
				b.ReportMetric(pipm.Speedup(res, nat), "speedup@100ns")
			}
		}
	}
}

func BenchmarkFig15LinkBandwidth(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("cc")
	for i := 0; i < b.N; i++ {
		for _, bw := range []float64{2.5e9, 5e9} {
			cfg := o.Cfg
			cfg.CXL.LinkBW = bw
			nat, err := pipm.Run(cfg, wl, pipm.Native, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipm.Run(cfg, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if bw == 2.5e9 {
				b.ReportMetric(pipm.Speedup(res, nat), "speedup@x8")
			}
		}
	}
}

func BenchmarkFig16LocalRemapCache(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		small := o.Cfg
		small.PIPM.LocalRemapCacheBytes = 1 << 10
		res, err := pipm.Run(small, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.LocalRemapHitRate, "remapHit%@1KB")
	}
}

func BenchmarkFig17GlobalRemapCache(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		small := o.Cfg
		small.PIPM.GlobalRemapCacheBytes = 512
		res, err := pipm.Run(small, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.GlobalRemapHitRate, "remapHit%@512B")
	}
}

// --- Ablations (DESIGN.md §6) ---

func BenchmarkAblationVoteThreshold(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		for _, th := range []int{4, 8, 16} {
			cfg := o.Cfg
			cfg.PIPM.MigrationThreshold = th
			res, err := pipm.Run(cfg, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if th == 8 {
				b.ReportMetric(100*res.LocalHitRate, "localHit%@th8")
			}
		}
	}
}

func BenchmarkAblationEMigration(b *testing.B) {
	// Strict M-only incremental migration (the paper's literal Loc-WB rule)
	// versus the E-extension this implementation defaults to.
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		strict := o.Cfg
		strict.PIPM.MigrateOnExclusiveEviction = false
		sres, err := pipm.Run(strict, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		eres, err := pipm.Run(o.Cfg, wl, pipm.PIPM, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*sres.LocalHitRate, "localHit%Monly")
		b.ReportMetric(100*eres.LocalHitRate, "localHit%withE")
	}
}

func BenchmarkAblationVoteVsStatic(b *testing.B) {
	// PIPM's adaptive vote versus HW-static's fixed mapping on the same
	// partitioned workload (the Fig. 10 OS-skew/HW-static ablation pair).
	for i := 0; i < b.N; i++ {
		vote := benchRun(b, "pr", pipm.PIPM)
		static := benchRun(b, "pr", pipm.HWStatic)
		b.ReportMetric(float64(static.ExecTime)/float64(vote.ExecTime), "voteAdvantage")
	}
}

// --- Telemetry overhead (DESIGN.md §10) ---

func BenchmarkTelemetryDisabledOverhead(b *testing.B) {
	// The disabled-telemetry pin: this is the exact hot path every run
	// executes, with nil instrument handles. Compare against
	// BenchmarkTelemetryEnabled (and historical BENCH_*.json) to confirm the
	// nil-check fast path stays within the §10 ≤2% budget.
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for i := 0; i < b.N; i++ {
		res, err := pipm.Run(o.Cfg, wl, pipm.Nomad, o.RecordsPerCore, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions)/b.Elapsed().Seconds()/float64(b.N), "instr/s")
	}
}

func BenchmarkTelemetryEnabled(b *testing.B) {
	// Same run with sampling and tracing on — the cost ceiling for -timeseries
	// -trace sweeps.
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	topt := pipm.TelemetryOptions{SampleInterval: 10 * pipm.Microsecond, Trace: true}
	for i := 0; i < b.N; i++ {
		res, tout, err := pipm.RunWithTelemetry(o.Cfg, wl, pipm.Nomad, o.RecordsPerCore, o.Seed, topt)
		if err != nil {
			b.Fatal(err)
		}
		if tout == nil || tout.Series == nil || len(tout.Series.Samples) == 0 {
			b.Fatal("enabled telemetry collected nothing")
		}
		b.ReportMetric(float64(res.Instructions)/b.Elapsed().Seconds()/float64(b.N), "instr/s")
	}
}

// BenchmarkAccessPath runs one reduced simulation per scheme family,
// end to end. The companion white-box benchmark of the same name in
// internal/machine isolates the bare hierarchy walk and is the 0 allocs/op
// guard for the DESIGN.md §11 layered memory path; this one pins each
// family's full records/s so a route-module regression shows up in the
// wall-clock trend even when it stays allocation-free.
func BenchmarkAccessPath(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	families := []struct {
		name string
		k    pipm.Scheme
	}{
		{"native", pipm.Native},
		{"kernel", pipm.Memtis},
		{"hardware", pipm.PIPM},
		{"local-only", pipm.LocalOnly},
	}
	records := int64(20_000)
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipm.Run(o.Cfg, wl, f.k, records, o.Seed); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(records) * float64(o.Cfg.Hosts*o.Cfg.CoresPerHost) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkAccessPathMultiHost measures multi-host simulation throughput
// (records/s) at 4 and 64 hosts on pr/PIPM. Every iteration must reproduce
// the first run's Result exactly. The 64-host point runs the sharded
// directory and the full-width sharer bitmask, with per-core records scaled
// down so total trace volume matches the 4-host point's.
func BenchmarkAccessPathMultiHost(b *testing.B) {
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("pr")
	for _, hosts := range []int{4, 64} {
		cfg := pipm.ScaleForHosts(o.Cfg, hosts)
		records := pipm.ClusterScaleRecords(20_000, 4, hosts)
		total := func(n int) float64 {
			return float64(records) * float64(cfg.Hosts*cfg.CoresPerHost) * float64(n)
		}
		want, err := pipm.Run(cfg, wl, pipm.PIPM, records, o.Seed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("seq-%dh", hosts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pipm.Run(cfg, wl, pipm.PIPM, records, o.Seed)
				if err != nil {
					b.Fatal(err)
				}
				if res != want {
					b.Fatal("sequential run diverged from itself")
				}
			}
			b.ReportMetric(total(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Raw simulation speed: records simulated per second of wall time.
	o := benchOptions()
	wl, _ := pipm.WorkloadByName("streamcluster")
	records := int64(20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipm.Run(o.Cfg, wl, pipm.PIPM, records, o.Seed); err != nil {
			b.Fatal(err)
		}
	}
	total := float64(records) * float64(o.Cfg.Hosts*o.Cfg.CoresPerHost) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkAlgorithmicGraphTrace(b *testing.B) {
	// Ground-truth PageRank trace generation + simulation end to end.
	o := benchOptions()
	g := pipm.KroneckerGraph(12, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pipm.NewMachine(o.Cfg, pipm.PIPM)
		if err != nil {
			b.Fatal(err)
		}
		if err := pipm.AttachGraphKernel(m, g, pipm.KernelPageRank, 30_000, 1); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmicStoreTrace(b *testing.B) {
	o := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pipm.NewMachine(o.Cfg, pipm.PIPM)
		if err != nil {
			b.Fatal(err)
		}
		if err := pipm.AttachStoreWorkload(m, pipm.StoreTPCC, 16, 30_000, 1); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
