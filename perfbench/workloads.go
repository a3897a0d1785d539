package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pipm/internal/config"
	"pipm/internal/harness"
	"pipm/internal/migration"
	"pipm/internal/service"
	"pipm/internal/workload"
)

// runSpec is one simulation of a workload's sweep.
type runSpec struct {
	wl      workload.Params
	cfg     config.Config
	scheme  migration.Kind
	records int64 // per core
	seed    int64
	key     string // canonical run key, hex
}

func newRunSpec(wl workload.Params, cfg config.Config, k migration.Kind, records, seed int64) runSpec {
	r := runSpec{wl: wl, cfg: cfg, scheme: k, records: records, seed: seed}
	r.key = r.req().Key().String()
	return r
}

func (r runSpec) req() harness.RunRequest {
	return harness.RunRequest{Cfg: r.cfg, WL: r.wl, Scheme: r.scheme, Records: r.records, Seed: r.seed}
}

// id is the run's span identifier: the short form of its key.
func (r runSpec) id() string { return r.key[:12] }

// cell names the (workload, cluster size) cell the run belongs to; every
// scheme of a cell executes the same instruction stream.
func (r runSpec) cell() string { return fmt.Sprintf("%s/%dh", r.wl.Name, r.cfg.Hosts) }

func (r runSpec) totalRecords() int64 {
	return r.records * int64(r.cfg.Hosts) * int64(r.cfg.CoresPerHost)
}

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// spec, when non-nil, is the sweep submission that expands to the same
	// runs: the cold sweep then goes through the experiment service's HTTP
	// API against a fresh result store instead of calling the machine layer
	// directly.
	spec func(seed, recordsDiv int64) service.SweepSpec
	runs func(seed, recordsDiv int64) []runSpec
}

func (w benchWorkload) viaService() bool { return w.spec != nil }

var workloads = []benchWorkload{
	{name: "quick4", runs: quick4Runs},
	{name: "scale256", runs: scale256Runs},
	{name: "serve-store", runs: serveRuns, spec: serveSpec},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// quick4Runs is the golden quick sweep: every scheme on the quick trio at 4
// hosts with QuickOptions.
func quick4Runs(seed, div int64) []runSpec {
	o := harness.QuickOptions()
	var out []runSpec
	for _, wl := range o.Workloads {
		for _, k := range migration.Kinds {
			out = append(out, newRunSpec(wl, o.Cfg, k, o.RecordsPerCore/div, seed))
		}
	}
	return out
}

// scale256Runs is pr at 64 and 256 hosts under the cluster-scale rules
// (ScaleForHosts, ClusterScaleRecords): the 64/256-host golden_scale rows.
func scale256Runs(seed, div int64) []runSpec {
	o := harness.QuickOptions()
	wl, err := workload.ByName("pr")
	if err != nil {
		panic(err) // the catalog is compiled in
	}
	var out []runSpec
	for _, hosts := range []int{64, 256} {
		for _, k := range []migration.Kind{migration.Native, migration.PIPM, migration.HWStatic, migration.Nomad} {
			records := harness.ClusterScaleRecords(o.RecordsPerCore/div, o.Cfg.Hosts, hosts)
			out = append(out, newRunSpec(wl, harness.ScaleForHosts(o.Cfg, hosts), k, records, seed))
		}
	}
	return out
}

// serveRuns is every scheme on llmserve and daxfs at the base 4 hosts: the
// 4-host golden_serve rows.
func serveRuns(seed, div int64) []runSpec {
	o := harness.QuickOptions()
	var out []runSpec
	for _, wl := range harness.ServeWorkloads() {
		for _, k := range migration.Kinds {
			cfg := harness.ScaleForHosts(o.Cfg, o.Cfg.Hosts)
			records := harness.ClusterScaleRecords(o.RecordsPerCore/div, o.Cfg.Hosts, o.Cfg.Hosts)
			out = append(out, newRunSpec(wl, cfg, k, records, seed))
		}
	}
	return out
}

// serveSpec is the sweep submission that expands to serveRuns.
func serveSpec(seed, div int64) service.SweepSpec {
	o := harness.QuickOptions()
	var names []string
	for _, wl := range harness.ServeWorkloads() {
		names = append(names, wl.Name)
	}
	return service.SweepSpec{Workloads: names, Schemes: []string{"all"}, Seed: seed, Quick: true,
		Hosts: o.Cfg.Hosts, Records: o.RecordsPerCore / div}
}

// goldenFiles are the repository's pinned Result digests, read only.
var goldenFiles = []string{"golden_quick.json", "golden_scale.json", "golden_serve.json"}

// loadGolden maps every pinned run key to its Result digest.
func loadGolden(root string) (map[string]string, error) {
	out := map[string]string{}
	for _, f := range goldenFiles {
		path := filepath.Join(root, "internal", "harness", "testdata", f)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("golden digests: %w", err)
		}
		var gf struct {
			Entries []struct {
				Key    string `json:"key"`
				Digest string `json:"digest"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(buf, &gf); err != nil {
			return nil, fmt.Errorf("golden digests %s: %w", path, err)
		}
		for _, e := range gf.Entries {
			out[e.Key] = e.Digest
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden digests: no entries under %s", root)
	}
	return out, nil
}
