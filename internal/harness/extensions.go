package harness

import (
	"fmt"
	"strings"

	"pipm/internal/config"
	"pipm/internal/migration"
	"pipm/internal/sim"
	"pipm/internal/telemetry"
	"pipm/internal/workload"
)

// The experiments below go beyond the paper's printed figures and cover the
// claims its text makes without a figure: §4.5's scalability argument
// (majority voting keeps suppressing harmful migrations as hosts grow) and
// §5.1.4's threshold robustness ("similar performance with thresholds
// ranging from 4 to 16").

// Scalability sweeps the host count and reports PIPM's speedup over Native
// plus OS-skew's, on each workload. Cores per host and the shared heap stay
// fixed, so adding hosts adds both compute demand and sharing pressure.
func (s *Suite) Scalability(hostCounts []int) (Table, error) {
	if len(hostCounts) == 0 {
		hostCounts = []int{2, 4, 8}
	}
	hostCfg := func(hosts int) config.Config {
		cfg := s.opt.Cfg
		cfg.Hosts = hosts
		return cfg
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		for _, hosts := range hostCounts {
			reqs = append(reqs,
				s.req(hostCfg(hosts), wl, migration.Native),
				s.req(hostCfg(hosts), wl, migration.PIPM))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Scalability (§4.5): PIPM speedup over Native vs host count",
		MeanLabel: "mean",
	}
	for _, h := range hostCounts {
		t.Cols = append(t.Cols, fmt.Sprintf("%dhosts", h))
	}
	for _, wl := range s.opt.Workloads {
		row := make([]float64, len(hostCounts))
		for i, hosts := range hostCounts {
			nat, err := s.get(hostCfg(hosts), wl, migration.Native)
			if err != nil {
				return Table{}, err
			}
			res, err := s.get(hostCfg(hosts), wl, migration.PIPM)
			if err != nil {
				return Table{}, err
			}
			row[i] = Speedup(res, nat)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Adaptivity runs phase-rotating variants of the workloads: halfway
// through the trace each host's partition affinity shifts to the next host, so
// yesterday's perfect placement is today's remote data. PIPM's vote plus
// revocation tracks the shift; HW-static's fixed mapping cannot — the
// dynamic-remapping argument of §3.3 made quantitative. The rotated Params
// differ from the catalog entry only in RotateEvery, which the run key
// captures, so these runs never alias the fixed-affinity sweep.
func (s *Suite) Adaptivity() (Table, error) {
	rotated := func(wl workload.Params) workload.Params {
		rot := wl
		rot.RotateEvery = s.opt.RecordsPerCore / 2 // two phases per run
		return rot
	}
	schemes := []migration.Kind{migration.HWStatic, migration.PIPM}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		rot := rotated(wl)
		reqs = append(reqs, s.req(s.opt.Cfg, rot, migration.Native))
		for _, k := range schemes {
			reqs = append(reqs, s.req(s.opt.Cfg, rot, k))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Adaptivity: speedup over Native with rotating partition affinity",
		MeanLabel: "mean",
		Cols:      []string{"hw-static", "pipm"},
	}
	for _, wl := range s.opt.Workloads {
		rot := rotated(wl)
		nat, err := s.get(s.opt.Cfg, rot, migration.Native)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, 2)
		for i, k := range schemes {
			res, err := s.get(s.opt.Cfg, rot, k)
			if err != nil {
				return Table{}, err
			}
			row[i] = Speedup(res, nat)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// ---------------------------------------------------------- cluster scale --

// ClusterScaleHosts is the default host sweep of the cluster-scale
// experiment: the paper's 4-host configuration plus the 16/64/256 points
// that exercise, in turn, the sharded directory, the widest exact sharer
// bitmask, and the summary sharer representation.
func ClusterScaleHosts() []int { return []int{4, 16, 64, 256} }

// clusterScaleSchemes is the presentation order of the cluster-scale
// comparison: the Native denominator, PIPM, the static-placement bound it
// must track, and one side-effect-blind kernel policy whose ordering below
// PIPM must survive every cluster size.
var clusterScaleSchemes = []migration.Kind{
	migration.Native, migration.PIPM, migration.HWStatic, migration.Nomad,
}

// ScaleForHosts derives the cluster-size variant of a base configuration.
// The 4-host base is returned untouched apart from the host count, so the
// small point of the sweep shares the quick sweep's exact machine shape; at
// 16 hosts and beyond the device directory grows power-of-two slices toward
// min(hosts, 64) so per-slice occupancy stays flat as the cluster grows.
func ScaleForHosts(cfg config.Config, hosts int) config.Config {
	cfg.Hosts = hosts
	if hosts >= 16 {
		for cfg.CXL.DirSlices < hosts && cfg.CXL.DirSlices < 64 {
			cfg.CXL.DirSlices *= 2
		}
	}
	return cfg
}

// ClusterScaleRecords scales the per-core record budget inversely with the
// host count so the sweep's total trace volume — and its wall-clock cost —
// stays near the base configuration's as hosts grow, floored so the largest
// cluster still runs long enough to reach steady placement.
func ClusterScaleRecords(recordsPerCore int64, baseHosts, hosts int) int64 {
	r := recordsPerCore * int64(baseHosts) / int64(hosts)
	if r < 512 {
		r = 512
	}
	return r
}

// clusterScaleReq names one cluster-scale run: the scaled configuration and
// record budget, with a time-series enabled so link occupancy is observable.
// Telemetry joins the run identity, so these runs never alias the quick
// sweep's — the 4-host golden digests are computed from telemetry-free runs.
func (s *Suite) clusterScaleReq(wl workload.Params, hosts int, k migration.Kind) RunRequest {
	r := s.req(ScaleForHosts(s.opt.Cfg, hosts), wl, k)
	r.Records = ClusterScaleRecords(s.opt.RecordsPerCore, s.opt.Cfg.Hosts, hosts)
	r.Telemetry = telemetry.Options{SampleInterval: 200 * sim.Microsecond}
	return r
}

// telemetryOf returns the collected telemetry of one completed request, nil
// if the key was never scheduled on this suite's engine.
func (s *Suite) telemetryOf(req RunRequest) *telemetry.Output {
	s.eng.mu.Lock()
	ent, ok := s.eng.runs[req.Key()]
	s.eng.mu.Unlock()
	if !ok {
		return nil
	}
	<-ent.done
	return ent.telem
}

// linkOccupancy derives the mean per-direction CXL link utilisation of a run
// from its closing telemetry snapshot: every host's up- and down-pipe busy
// time (cumulative gauges, so the last sample is the whole run) over the
// aggregate link-time 2·hosts·makespan.
func linkOccupancy(out *telemetry.Output, hosts int, exec sim.Time) float64 {
	if out == nil || out.Series == nil || len(out.Series.Samples) == 0 || hosts <= 0 || exec <= 0 {
		return 0
	}
	last := out.Series.Samples[len(out.Series.Samples)-1]
	var busy float64
	for i, name := range out.Series.Names {
		if strings.HasSuffix(name, ".link.up.busy_ps") || strings.HasSuffix(name, ".link.down.busy_ps") {
			busy += last.Values[i]
		}
	}
	return busy / (2 * float64(hosts) * float64(exec))
}

// ClusterScale sweeps the cluster size across representation regimes (exact
// sharer bitmask at 4/16/64 hosts, summary sets plus sparse hotness rows at
// 256) and reports two tables: scheme speedup over Native — the paper's
// ordering claim, which must hold at every size — and CXL link occupancy,
// where batched region shootdowns must keep the fabric from saturating as
// sharer populations grow. One workload (pr, the strongest sharing pressure
// in the quick set) keeps the 256-host point affordable.
func (s *Suite) ClusterScale(hostCounts []int) ([]Table, error) {
	if len(hostCounts) == 0 {
		hostCounts = ClusterScaleHosts()
	}
	wl := mustWorkload("pr")
	var reqs []RunRequest
	for _, hosts := range hostCounts {
		for _, k := range clusterScaleSchemes {
			reqs = append(reqs, s.clusterScaleReq(wl, hosts, k))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return nil, err
	}

	speed := Table{
		Title:     "Cluster scale: speedup over Native vs host count (pr)",
		MeanLabel: "mean",
	}
	occ := Table{
		Title: "Cluster scale: CXL link occupancy vs host count (pr)",
		Fmt:   "%.4f",
	}
	for _, hosts := range hostCounts {
		col := fmt.Sprintf("%dhosts", hosts)
		speed.Cols = append(speed.Cols, col)
		occ.Cols = append(occ.Cols, col)
	}
	for _, k := range clusterScaleSchemes {
		var srow, orow []float64
		for _, hosts := range hostCounts {
			req := s.clusterScaleReq(wl, hosts, k)
			res, err := s.eng.get(req)
			if err != nil {
				return nil, err
			}
			if k != migration.Native {
				nat, err := s.eng.get(s.clusterScaleReq(wl, hosts, migration.Native))
				if err != nil {
					return nil, err
				}
				srow = append(srow, Speedup(res, nat))
			}
			orow = append(orow, linkOccupancy(s.telemetryOf(req), hosts, res.ExecTime))
		}
		if k != migration.Native {
			speed.Rows = append(speed.Rows, k.String())
			speed.Cells = append(speed.Cells, srow)
		}
		occ.Rows = append(occ.Rows, k.String())
		occ.Cells = append(occ.Cells, orow)
	}
	return []Table{speed, occ}, nil
}

// ThresholdSensitivity sweeps the majority-vote promotion threshold and
// reports PIPM's speedup over Native — the §5.1.4 robustness claim. The
// point matching the base configuration's threshold shares its run with the
// Fig 10–13 sweep through the memo.
func (s *Suite) ThresholdSensitivity(thresholds []int) (Table, error) {
	if len(thresholds) == 0 {
		thresholds = []int{2, 4, 8, 16, 32}
	}
	thCfg := func(th int) config.Config {
		cfg := s.opt.Cfg
		cfg.PIPM.MigrationThreshold = th
		return cfg
	}
	var reqs []RunRequest
	for _, wl := range s.opt.Workloads {
		reqs = append(reqs, s.req(s.opt.Cfg, wl, migration.Native))
		for _, th := range thresholds {
			reqs = append(reqs, s.req(thCfg(th), wl, migration.PIPM))
		}
	}
	if err := s.prefetch(reqs); err != nil {
		return Table{}, err
	}
	t := Table{
		Title:     "Threshold sensitivity (§5.1.4): PIPM speedup over Native vs vote threshold",
		MeanLabel: "mean",
	}
	for _, th := range thresholds {
		t.Cols = append(t.Cols, fmt.Sprintf("th=%d", th))
	}
	for _, wl := range s.opt.Workloads {
		nat, err := s.get(s.opt.Cfg, wl, migration.Native)
		if err != nil {
			return Table{}, err
		}
		row := make([]float64, len(thresholds))
		for i, th := range thresholds {
			res, err := s.get(thCfg(th), wl, migration.PIPM)
			if err != nil {
				return Table{}, err
			}
			row[i] = Speedup(res, nat)
		}
		t.Rows = append(t.Rows, wl.Name)
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}
