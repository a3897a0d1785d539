package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipm/internal/harness"
	"pipm/internal/service"
	"pipm/internal/store"
)

// loopback serves whichever service is current on one 127.0.0.1 listener
// and talks to it over a single keep-alive connection. It times every
// GET /v1/runs/{key} inside the handler, so the fetch latency the client
// sees splits into server time and the rest.
type loopback struct {
	cur    atomic.Pointer[service.Service]
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client

	tr       *tracer // nil when untraced
	mu       sync.Mutex
	fetchSrv []time.Duration
	parent   int // span the next fetch's server span nests under
}

func startLoopback(tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	lb := &loopback{
		tr:   tr,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	lb.srv = &http.Server{Handler: lb, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return lb, nil
}

func (lb *loopback) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	svc := lb.cur.Load()
	if svc == nil {
		http.Error(w, "no service", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/runs/") {
		svc.Handler().ServeHTTP(w, r)
		return
	}
	lb.mu.Lock()
	parent := lb.parent
	lb.mu.Unlock()
	sp := lb.tr.start("fetch", "service.fetch_server", parent)
	t0 := time.Now()
	svc.Handler().ServeHTTP(w, r)
	d := time.Since(t0)
	lb.tr.end(sp)
	lb.mu.Lock()
	lb.fetchSrv = append(lb.fetchSrv, d)
	lb.mu.Unlock()
}

// stop shuts the server down, drains the current service and waits for the
// serving goroutine to exit.
func (lb *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.srv.Shutdown(ctx) //nolint:errcheck // the wait below is what matters
	<-lb.done
	lb.client.CloseIdleConnections()
	if svc := lb.cur.Load(); svc != nil {
		svc.Drain(ctx) //nolint:errcheck // jobs are finished by now
	}
}

// use makes a fresh service over st current; the previous one, whose jobs
// have all finished, is drained.
func (lb *loopback) use(st *store.Store) *service.Service {
	svc := service.New(service.Config{Workers: 1, Store: st, MaxActiveJobs: 1})
	if old := lb.cur.Swap(svc); old != nil {
		old.Drain(context.Background()) //nolint:errcheck // background never expires
	}
	return svc
}

// sweep submits spec and waits on the job's event stream until it is
// terminal. It returns the job's final state.
func (lb *loopback) sweep(spec service.SweepSpec, tr *tracer, id string, parent int) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sp := tr.start(id, "service.submit", parent)
	resp, err := lb.client.Post(lb.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		return "", fmt.Errorf("submit: %w", err)
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
	resp.Body.Close()
	tr.end(sp)
	if err != nil || resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}

	sp = tr.start(id, "service.job", parent)
	defer tr.end(sp)
	resp, err = lb.client.Get(lb.base + "/v1/sweeps/" + sub.ID + "/events")
	if err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.Type == "job" {
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	if !service.JobState(state).Terminal() {
		return "", errors.New("events: stream ended before the job finished")
	}
	return state, nil
}

// fetch is one closed-loop GET /v1/runs/{key}; it returns the body.
func (lb *loopback) fetch(key string) ([]byte, error) {
	resp, err := lb.client.Get(lb.base + "/v1/runs/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// storedEntry is the body layout the harness engine persists: the Result
// and its digest, which harness.DecodeStoredEntry verifies on load.
type storedEntry struct {
	Result harness.Result `json:"result"`
	Digest string         `json:"digest"`
}

func encodeEntry(res harness.Result) ([]byte, error) {
	return json.Marshal(storedEntry{Result: res, Digest: harness.DigestResult(res)})
}
