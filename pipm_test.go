package pipm_test

import (
	"testing"

	"pipm"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := pipm.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	scaled := pipm.ScaledConfig()
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	if scaled.SharedBytes >= cfg.CXLDRAM.CapacityBytes {
		t.Fatal("scaled config is not scaled")
	}
}

func TestSchemesRoundTrip(t *testing.T) {
	ks := pipm.Schemes()
	if len(ks) != 8 {
		t.Fatalf("Schemes() has %d entries, want 8", len(ks))
	}
	for _, k := range ks {
		got, err := pipm.ParseScheme(k.String())
		if err != nil || got != k {
			t.Errorf("ParseScheme(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestWorkloadCatalog(t *testing.T) {
	if len(pipm.Workloads()) != 13 || len(pipm.WorkloadNames()) != 15 {
		t.Fatal("catalog size mismatch")
	}
	if len(pipm.ProductionWorkloads()) != 2 || len(pipm.AllWorkloads()) != 15 {
		t.Fatal("production family size mismatch")
	}
	wl, err := pipm.WorkloadByName("tpcc")
	if err != nil || wl.Suite != "Silo" {
		t.Fatalf("WorkloadByName(tpcc) = %+v, %v", wl, err)
	}
	serve, err := pipm.WorkloadByName("llmserve")
	if err != nil || serve.Suite != "Serve" {
		t.Fatalf("WorkloadByName(llmserve) = %+v, %v", serve, err)
	}
}

func TestEndToEndRunThroughPublicAPI(t *testing.T) {
	cfg := pipm.QuickSuiteOptions().Cfg
	wl, _ := pipm.WorkloadByName("pr")
	nat, err := pipm.Run(cfg, wl, pipm.Native, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipm.Run(cfg, wl, pipm.PIPM, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := pipm.Speedup(res, nat); s <= 1 {
		t.Fatalf("PIPM speedup on pr = %.2f, want > 1", s)
	}
	if res.LocalHitRate <= 0.2 {
		t.Fatalf("local hit rate = %.2f", res.LocalHitRate)
	}
}

func TestMachineDirectUse(t *testing.T) {
	cfg := pipm.QuickSuiteOptions().Cfg
	m, err := pipm.NewMachine(cfg, pipm.PIPM)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := pipm.WorkloadByName("streamcluster")
	am := m.AddressMap()
	for h := 0; h < cfg.Hosts; h++ {
		for c := 0; c < cfg.CoresPerHost; c++ {
			m.SetTrace(h, c, wl.NewReader(am, cfg.Hosts, h, c, 10_000, 7))
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ExecTime() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestVerifyCoherence(t *testing.T) {
	for _, ext := range []bool{false, true} {
		res, v := pipm.VerifyCoherence(2, 1, ext)
		if v != nil {
			t.Fatalf("pipm=%v: %v", ext, v)
		}
		if res.States == 0 || !res.DeadlockFree {
			t.Fatalf("pipm=%v: degenerate result %+v", ext, res)
		}
	}
}

func TestTablesRender(t *testing.T) {
	if pipm.Table1() == "" || pipm.Table2(pipm.DefaultConfig()) == "" {
		t.Fatal("empty table renderings")
	}
}

func TestGraphKernelEndToEnd(t *testing.T) {
	cfg := pipm.QuickSuiteOptions().Cfg
	// The graph must dwarf the LLC or everything cache-hits and there is
	// nothing to migrate: scale 12 × degree 16 ≈ 600 KB of arrays against a
	// 128 KB per-host LLC.
	g := pipm.KroneckerGraph(12, 16, 1)
	runK := func(s pipm.Scheme) *pipm.Machine {
		m, err := pipm.NewMachine(cfg, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipm.AttachGraphKernel(m, g, pipm.KernelPageRank, 150_000, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	nat := runK(pipm.Native)
	pip := runK(pipm.PIPM)
	if pip.ExecTime() >= nat.ExecTime() {
		t.Fatalf("ground-truth PageRank: PIPM (%v) not faster than native (%v)",
			pip.ExecTime(), nat.ExecTime())
	}
	if pip.Stats().LinesMoved == 0 {
		t.Fatal("no incremental migration on the real PR trace")
	}
}

func TestAttachGraphKernelRejectsOversizedGraph(t *testing.T) {
	cfg := pipm.QuickSuiteOptions().Cfg
	cfg.SharedBytes = 1 << 20
	m, err := pipm.NewMachine(cfg, pipm.Native)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipm.AttachGraphKernel(m, pipm.KroneckerGraph(14, 16, 1), pipm.KernelBFS, 100, 1); err == nil {
		t.Fatal("oversized graph accepted")
	}
}
