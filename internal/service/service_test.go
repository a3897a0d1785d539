package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pipm/internal/migration"
	"pipm/internal/store"
	"pipm/internal/workload"
)

// tinySpec is the smallest meaningful sweep: one quick workload, two schemes.
func tinySpec() SweepSpec {
	return SweepSpec{
		Quick:     true,
		Workloads: []string{"pr"},
		Schemes:   []string{"native", "pipm"},
		Records:   2000,
	}
}

func newTestService(t *testing.T, withStore bool) *Service {
	t.Helper()
	cfg := Config{Workers: 2, MaxActiveJobs: 2, RequestTimeout: 30 * time.Second}
	if withStore {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		cfg.Store = st
	}
	return New(cfg)
}

func submit(t *testing.T, srv *httptest.Server, spec SweepSpec) (SubmitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out, resp.StatusCode
}

func jobStatus(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

func waitJob(t *testing.T, svc *Service, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	j, ok := svc.Manager().Get(id)
	if !ok {
		t.Fatalf("job %s not found in manager", id)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	return jobStatus(t, srv, id)
}

// TestServiceEndToEnd drives the full API surface against one daemon: submit,
// status, artefact endpoints, registry endpoints, metrics.
func TestServiceEndToEnd(t *testing.T) {
	svc := newTestService(t, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sub, code := submit(t, srv, tinySpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	if sub.Deduped {
		t.Fatalf("first submit reported deduped")
	}
	if sub.Total != 2 {
		t.Fatalf("sweep expanded to %d runs, want 2", sub.Total)
	}

	st := waitJob(t, svc, srv, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job state %q (error %q), want done", st.State, st.Error)
	}
	if st.Done != 2 || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want 2/0", st.Done, st.Failed)
	}
	if len(st.Runs) != 2 {
		t.Fatalf("status has %d runs, want 2", len(st.Runs))
	}
	for _, r := range st.Runs {
		if r.State != RunDone {
			t.Fatalf("run %s state %q", r.Key[:12], r.State)
		}
		if r.Stats == nil || r.Stats.Instructions == 0 {
			t.Fatalf("run %s missing stats", r.Key[:12])
		}
	}

	// The stored artefact is served verbatim and matches the store file.
	key := st.Runs[0].Key
	resp, err := http.Get(srv.URL + "/v1/runs/" + key)
	if err != nil {
		t.Fatalf("GET run: %v", err)
	}
	got, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run: status %d: %s", resp.StatusCode, got)
	}
	want, err := svc.store.Load(key)
	if err != nil {
		t.Fatalf("store.Load: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served run body differs from store entry (%d vs %d bytes)", len(got), len(want))
	}

	// Untelemetered runs have no timeseries/trace.
	resp, err = http.Get(srv.URL + "/v1/runs/" + key + "/timeseries")
	if err != nil {
		t.Fatalf("GET timeseries: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("timeseries without telemetry: status %d, want 404", resp.StatusCode)
	}

	// Unknown key → 404; malformed key → 400.
	for path, want := range map[string]int{
		"/v1/runs/" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/runs/nope":                       http.StatusBadRequest,
		"/v1/sweeps/nope":                     http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Registry endpoints mirror the in-process registries.
	var schemes []SchemeInfo
	getJSON(t, srv, "/v1/schemes", &schemes)
	if len(schemes) != len(migration.Registered()) {
		t.Fatalf("schemes: %d entries, want %d", len(schemes), len(migration.Registered()))
	}
	var wls []WorkloadInfo
	getJSON(t, srv, "/v1/workloads", &wls)
	if len(wls) != len(workload.Catalog()) {
		t.Fatalf("workloads: %d entries, want %d", len(wls), len(workload.Catalog()))
	}

	// Metrics include the simulation count and the store gauges.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	metrics, _ := readAll(resp)
	for _, want := range []string{
		"pipm_simulations_total 2",
		"pipm_jobs_done_total 1",
		"pipm_store_saves 2",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServiceDedup covers both dedupe layers: an identical resubmission maps
// to the same job (content-addressed ID), and a distinct-but-overlapping job
// reuses the engine memo so no new simulations run.
func TestServiceDedup(t *testing.T) {
	svc := newTestService(t, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	first, code := submit(t, srv, tinySpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	waitJob(t, svc, srv, first.ID)
	sims := svc.Metrics().Simulations.Load()
	if sims != 2 {
		t.Fatalf("simulations after first job: %d, want 2", sims)
	}

	// Identical spec — same job, no new work at all.
	again, code := submit(t, srv, tinySpec())
	if code != http.StatusOK || !again.Deduped || again.ID != first.ID {
		t.Fatalf("resubmit: status %d deduped=%v id=%s (want 200/true/%s)",
			code, again.Deduped, again.ID, first.ID)
	}
	if got := svc.Metrics().Simulations.Load(); got != sims {
		t.Fatalf("resubmit triggered %d new simulations", got-sims)
	}

	// A superset sweep is a new job but shares the memoized runs: only the
	// genuinely new (workload, scheme) pair simulates.
	super := tinySpec()
	super.Schemes = []string{"native", "pipm", "nomad"}
	sup, code := submit(t, srv, super)
	if code != http.StatusAccepted || sup.ID == first.ID {
		t.Fatalf("superset submit: status %d id=%s", code, sup.ID)
	}
	st := waitJob(t, svc, srv, sup.ID)
	if st.State != JobDone || st.Done != 3 {
		t.Fatalf("superset job: state=%q done=%d", st.State, st.Done)
	}
	if got := svc.Metrics().Simulations.Load(); got != sims+1 {
		t.Fatalf("superset ran %d new simulations, want 1", got-sims)
	}
}

// TestServiceConcurrentIdenticalSubmissions races many identical POSTs: all
// must collapse to one job and one simulation per run key.
func TestServiceConcurrentIdenticalSubmissions(t *testing.T) {
	svc := newTestService(t, false)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, _ := submit(t, srv, tinySpec())
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %s, client 0 got %s", i, ids[i], ids[0])
		}
	}
	st := waitJob(t, svc, srv, ids[0])
	if st.State != JobDone {
		t.Fatalf("job state %q", st.State)
	}
	if created := svc.Metrics().JobsSubmitted.Load(); created != 1 {
		t.Fatalf("%d jobs created, want 1", created)
	}
	if sims := svc.Metrics().Simulations.Load(); sims != 2 {
		t.Fatalf("%d simulations, want 2 (one per distinct key)", sims)
	}
}

// TestServiceSSE consumes the event stream of a job from start to terminal
// event and checks the sequence is dense and complete.
func TestServiceSSE(t *testing.T) {
	svc := newTestService(t, false)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sub, _ := submit(t, srv, tinySpec())
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.Type == "job" && JobState(ev.State).Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan events: %v", err)
	}
	// 2 runs + "running" + terminal = 4 events, densely numbered.
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if events[0].Type != "job" || events[0].State != string(JobRunning) {
		t.Fatalf("first event %+v, want job/running", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "job" || last.State != string(JobDone) || last.Done != 2 {
		t.Fatalf("terminal event %+v", last)
	}

	// A late subscriber replays the full log instantly.
	resp2, err := http.Get(srv.URL + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		t.Fatalf("GET events (replay): %v", err)
	}
	replay, _ := readAll(resp2)
	if n := strings.Count(string(replay), "data: "); n != 4 {
		t.Fatalf("replay has %d events, want 4", n)
	}
}

// TestServiceCancel cancels a job stuck behind the active-jobs bound and
// checks it finishes as cancelled without running anything.
func TestServiceCancel(t *testing.T) {
	svc := New(Config{Workers: 1, MaxActiveJobs: 1, RequestTimeout: 30 * time.Second})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Occupy the single active slot with a job big enough to still be
	// running when the DELETE lands (the victim stays queued behind it).
	big := tinySpec()
	big.Records = 400000
	blocker, _ := submit(t, srv, big)
	// ...then queue a different sweep behind it and cancel it while queued.
	queued := tinySpec()
	queued.Workloads = []string{"canneal"}
	victim, _ := submit(t, srv, queued)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}

	st := waitJob(t, svc, srv, victim.ID)
	if st.State != JobCancelled {
		t.Fatalf("victim state %q, want cancelled", st.State)
	}
	if st.Cancelled != st.Total || st.Done != 0 {
		t.Fatalf("victim counts done=%d cancelled=%d total=%d", st.Done, st.Cancelled, st.Total)
	}
	if bl := waitJob(t, svc, srv, blocker.ID); bl.State != JobDone {
		t.Fatalf("blocker state %q", bl.State)
	}
	// The victim's runs never simulated.
	if sims := svc.Metrics().Simulations.Load(); sims != 2 {
		t.Fatalf("%d simulations, want only the blocker's 2", sims)
	}
	if got := svc.Metrics().JobsCancelled.Load(); got != 1 {
		t.Fatalf("jobs_cancelled %d, want 1", got)
	}
}

// TestServiceDrain: draining rejects new sweeps with 503 but finishes the
// in-flight job; Drain returns once all jobs settle.
func TestServiceDrain(t *testing.T) {
	svc := newTestService(t, false)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sub, _ := submit(t, srv, tinySpec())
	svc.Manager().SetDraining()

	late := tinySpec()
	late.Workloads = []string{"ycsb"}
	_, code := submit(t, srv, late)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	// Resubmitting the live job still dedupes rather than erroring.
	dup, code := submit(t, srv, tinySpec())
	if code != http.StatusOK || !dup.Deduped {
		t.Fatalf("dedupe while draining: status %d deduped=%v", code, dup.Deduped)
	}

	ctx, cancelCtx := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelCtx()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := jobStatus(t, srv, sub.ID); st.State != JobDone {
		t.Fatalf("job state after drain %q, want done", st.State)
	}
}

// TestServiceTimeseriesAndTrace submits a telemetered sweep and fetches both
// derived artefacts.
func TestServiceTimeseriesAndTrace(t *testing.T) {
	svc := newTestService(t, true)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := tinySpec()
	spec.Schemes = []string{"pipm"}
	spec.SampleInterval = "20us"
	spec.Trace = true
	sub, _ := submit(t, srv, spec)
	st := waitJob(t, svc, srv, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job state %q (error %q)", st.State, st.Error)
	}
	key := st.Runs[0].Key

	var ts struct {
		Schema string `json:"schema"`
		Runs   []struct {
			Label string `json:"label"`
		} `json:"runs"`
	}
	getJSON(t, srv, "/v1/runs/"+key+"/timeseries", &ts)
	if !strings.HasPrefix(ts.Schema, "pipm-timeseries/") || len(ts.Runs) != 1 {
		t.Fatalf("timeseries schema=%q runs=%d", ts.Schema, len(ts.Runs))
	}
	if ts.Runs[0].Label != "pr/pipm" {
		t.Fatalf("timeseries label %q", ts.Runs[0].Label)
	}

	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	getJSON(t, srv, "/v1/runs/"+key+"/trace", &trace)
	if len(trace.TraceEvents) == 0 {
		t.Fatalf("trace has no events")
	}
}

// TestExpand covers the spec-resolution corners: aliasing, unknown names,
// zero-run and over-budget rejection, and ID stability under reordering.
func TestExpand(t *testing.T) {
	spec := tinySpec()
	runs, id, err := Expand(spec, 0)
	if err != nil || len(runs) != 2 {
		t.Fatalf("Expand: %v, %d runs", err, len(runs))
	}

	// Order and duplicates don't change the identity.
	reordered := spec
	reordered.Schemes = []string{"pipm", "native", "pipm"}
	runs2, id2, err := Expand(reordered, 0)
	if err != nil || len(runs2) != 2 {
		t.Fatalf("Expand reordered: %v, %d runs", err, len(runs2))
	}
	if id2 != id {
		t.Fatalf("reordered spec changed job ID: %s vs %s", id2, id)
	}

	// "all" and empty both mean the full registry.
	all := spec
	all.Schemes = []string{"all"}
	runsAll, _, err := Expand(all, 0)
	if err != nil || len(runsAll) != len(migration.Kinds) {
		t.Fatalf("Expand all: %v, %d runs, want %d", err, len(runsAll), len(migration.Kinds))
	}

	for _, bad := range []SweepSpec{
		{Quick: true, Workloads: []string{"no-such-workload"}},
		{Quick: true, Schemes: []string{"no-such-scheme"}},
		{Quick: true, SampleInterval: "banana"},
		{Quick: true, Audit: "frantic"},
	} {
		if _, _, err := Expand(bad, 0); err == nil {
			t.Fatalf("Expand(%+v) accepted a bad spec", bad)
		}
	}
	if _, _, err := Expand(SweepSpec{Quick: true}, 2); err == nil {
		t.Fatalf("Expand accepted a sweep over the run limit")
	}
}

// TestSubmitRejectsUnknownFields pins the strict decoder: a spec field the
// service no longer knows fails the submission with 400, so an old client
// fails loudly instead of having its knob silently dropped from the sweep.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	svc := newTestService(t, false)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{"quick":true,"workloads":["pr"],"schemes":["native"],"records":2000,"intra_workers":4}`
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	var e apiError
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode error body %q: %v", raw, err)
	}
	if !strings.Contains(e.Error, "bad sweep spec") || !strings.Contains(e.Error, "unknown field") {
		t.Fatalf("error = %q, want a bad sweep spec rejecting an unknown field", e.Error)
	}
}

// TestJobTableEviction caps the job table at 2 and walks three sweeps
// through it: the least-recently-accessed finished job is evicted on the
// third submission, a status read refreshes a job's recency, live jobs and
// the index stay consistent — and an evicted job's run artefact remains
// reachable via /v1/runs/{key}, because results live in the store under
// their run key, not in the job table.
func TestJobTableEviction(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	svc := New(Config{Workers: 2, MaxActiveJobs: 2, MaxJobs: 2,
		RequestTimeout: 30 * time.Second, Store: st})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := func(records int64) SweepSpec {
		return SweepSpec{Quick: true, Workloads: []string{"pr"},
			Schemes: []string{"native"}, Records: records}
	}
	sub1, _ := submit(t, srv, spec(2000))
	waitJob(t, svc, srv, sub1.ID)
	sub2, _ := submit(t, srv, spec(2200))
	st2 := waitJob(t, svc, srv, sub2.ID)
	key2 := st2.Runs[0].Key

	// Touch job 1 so job 2 becomes the eviction candidate, then overflow.
	jobStatus(t, srv, sub1.ID)
	sub3, _ := submit(t, srv, spec(2400))
	waitJob(t, svc, srv, sub3.ID)

	if _, ok := svc.Manager().Get(sub2.ID); ok {
		t.Fatalf("job %s should have been evicted", sub2.ID[:12])
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + sub2.ID)
	if err != nil {
		t.Fatalf("GET evicted job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted job: status %d, want 404", resp.StatusCode)
	}
	for _, id := range []string{sub1.ID, sub3.ID} {
		if got := jobStatus(t, srv, id); !got.State.Terminal() {
			t.Fatalf("surviving job %s state %q", id[:12], got.State)
		}
	}
	var index []JobStatus
	getJSON(t, srv, "/v1/sweeps", &index)
	if len(index) != 2 {
		t.Fatalf("jobs index has %d entries, want 2", len(index))
	}
	if got := svc.Metrics().JobsEvicted.Load(); got != 1 {
		t.Fatalf("JobsEvicted = %d, want 1", got)
	}

	// The evicted job's artefact is still served by its run key.
	resp, err = http.Get(srv.URL + "/v1/runs/" + key2)
	if err != nil {
		t.Fatalf("GET evicted job's run: %v", err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET evicted job's run: status %d: %s", resp.StatusCode, body)
	}

	// Resubmitting the evicted spec is a fresh job, not a dedupe — and its
	// run is answered from the store, not resimulated.
	sub2b, code := submit(t, srv, spec(2200))
	if code != http.StatusAccepted || sub2b.Deduped {
		t.Fatalf("resubmit after eviction: status %d deduped=%v, want 202/false", code, sub2b.Deduped)
	}
	if got := waitJob(t, svc, srv, sub2b.ID); got.State != JobDone {
		t.Fatalf("resubmitted job state %q", got.State)
	}
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
