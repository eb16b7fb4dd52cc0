package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// fakeWorker is a stub cpelide-server: it accepts jobs, completes them
// instantly, and serves results, so coordinator tests run in microseconds.
type fakeWorker struct {
	name string
	ts   *httptest.Server

	mu   sync.Mutex
	jobs map[string]json.RawMessage // id -> canned "report"
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{name: name, jobs: make(map[string]json.RawMessage)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req server.JobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
			return
		}
		job, err := req.Job()
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
			return
		}
		id, err := job.Key()
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, server.ErrCodeBadRequest, "%v", err)
			return
		}
		fw.mu.Lock()
		fw.jobs[id] = json.RawMessage(fmt.Sprintf(`{"workload":%q,"served_by":%q}`, req.Workload, name))
		fw.mu.Unlock()
		server.WriteJSON(w, http.StatusAccepted, server.StatusResponse{ID: id, Status: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		rep, ok := fw.jobs[r.PathValue("id")]
		fw.mu.Unlock()
		if !ok {
			server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job")
			return
		}
		server.WriteJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		fw.mu.Lock()
		_, ok := fw.jobs[id]
		fw.mu.Unlock()
		if !ok {
			server.WriteError(w, http.StatusNotFound, server.ErrCodeNotFound, "unknown job")
			return
		}
		server.WriteJSON(w, http.StatusOK, server.StatusResponse{ID: id, Status: "done"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *fakeWorker) count() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.jobs)
}

// testCoordinator builds a coordinator with a fast health loop and its HTTP
// front end.
func testCoordinator(t *testing.T, reg *metrics.Registry) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   2 * time.Second,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func submitJob(t *testing.T, baseURL string, i int) (string, int) {
	t.Helper()
	body := fmt.Sprintf(`{"workload":"square","scale":%g,"protocol":"cpelide"}`, 0.05+float64(i)*1e-4)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return sr.ID, resp.StatusCode
}

// TestRoutingIsConsistentAndSpread: the same job always lands on the same
// worker, and distinct jobs spread across all of them.
func TestRoutingIsConsistentAndSpread(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	const jobs = 60
	owner := make(map[string]string) // id -> worker that holds it
	for i := 0; i < jobs; i++ {
		id, code := submitJob(t, ts.URL, i)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		for _, fw := range workers {
			fw.mu.Lock()
			_, here := fw.jobs[id]
			fw.mu.Unlock()
			if here {
				if prev, seen := owner[id]; seen && prev != fw.name {
					t.Fatalf("job %s on both %s and %s", id, prev, fw.name)
				}
				owner[id] = fw.name
			}
		}
	}
	// Resubmitting everything must not move anything.
	counts := map[string]int{}
	for _, fw := range workers {
		counts[fw.name] = fw.count()
	}
	for i := 0; i < jobs; i++ {
		submitJob(t, ts.URL, i)
	}
	for _, fw := range workers {
		if fw.count() != counts[fw.name] {
			t.Errorf("%s: job count changed on resubmit: %d -> %d", fw.name, counts[fw.name], fw.count())
		}
		if counts[fw.name] == 0 {
			t.Errorf("%s received no jobs; routing is not spreading", fw.name)
		}
	}
}

// TestNoWorkers: submissions without any registered worker fail with 503 in
// the standard error schema.
func TestNoWorkers(t *testing.T) {
	_, ts := testCoordinator(t, nil)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"square","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var e server.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code == "" {
		t.Fatalf("error schema: %+v err=%v", e, err)
	}
	// Health probe agrees.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503", hresp.StatusCode)
	}
}

// TestWorkerDeathReroutes kills one of three workers and verifies its jobs
// are replayed onto survivors: every job's result stays fetchable through
// the coordinator and the reroute counters move.
func TestWorkerDeathReroutes(t *testing.T) {
	reg := metrics.NewRegistry()
	c, ts := testCoordinator(t, reg)
	workers := []*fakeWorker{
		newFakeWorker(t, "w1"), newFakeWorker(t, "w2"), newFakeWorker(t, "w3"),
	}
	for _, fw := range workers {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	const jobs = 45
	ids := make([]string, jobs)
	for i := range ids {
		id, code := submitJob(t, ts.URL, i)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		ids[i] = id
	}

	// Kill the worker holding the most jobs.
	victim := workers[0]
	for _, fw := range workers[1:] {
		if fw.count() > victim.count() {
			victim = fw
		}
	}
	lost := victim.count()
	if lost == 0 {
		t.Fatal("victim held no jobs; test cannot exercise rerouting")
	}
	victim.ts.Close()

	// Wait for the health loop to notice (2 probes at 20ms, plus slack).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the victim dead")
		}
		healthy := 0
		for _, ws := range c.Workers() {
			if ws.Healthy {
				healthy++
			}
		}
		if healthy == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every job — including the victim's — must still resolve via the
	// coordinator. Rerouted jobs may briefly answer 202 while replaying.
	for _, id := range ids {
		var ok bool
		for attempt := 0; attempt < 50; attempt++ {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if bytes.Contains(body, []byte(victim.name)) {
					t.Fatalf("job %s still served by dead worker %s", id, victim.name)
				}
				ok = true
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !ok {
			t.Fatalf("job %s lost after worker death", id)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if v, ok := metrics.ParseValue(string(exposition), "cluster_reroutes_total"); !ok || v == 0 {
		t.Errorf("cluster_reroutes_total = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := metrics.ParseValue(string(exposition), "cluster_workers_healthy"); !ok || v != 2 {
		t.Errorf("cluster_workers_healthy = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := metrics.ParseValue(string(exposition), "cluster_maglev_rebuilds_total"); !ok || v < 4 {
		t.Errorf("cluster_maglev_rebuilds_total = %v (ok=%v), want >= 4 (3 registrations + death)", v, ok)
	}
}

// TestClientCancelSparesWorker: a client that gives up on a slow proxied
// request (submit, poll or stats scrape) must not count against the worker.
// Each case stalls one route on the only worker and sends FailThreshold
// requests through it with a 50ms client timeout; the worker must stay
// healthy with no proxy errors (and hence no replay of its jobs).
func TestClientCancelSparesWorker(t *testing.T) {
	cases := []struct {
		name  string
		stall string // worker route that answers only after 2s
		path  func(id string) string
	}{
		{"submit", "POST /v1/jobs", func(string) string { return "/v1/jobs" }},
		{"poll", "GET /v1/jobs/", func(id string) string { return "/v1/jobs/" + id }},
		{"result", "GET /v1/jobs/", func(id string) string { return "/v1/jobs/" + id + "/result" }},
		{"stats", "GET /v1/stats", func(string) string { return "/v1/stats" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			// No health probes during the test: a probe's success would
			// reset the failure count the buggy path accumulates.
			c, err := NewCoordinator(Options{
				HealthInterval: time.Hour,
				FailThreshold:  2,
				ProxyTimeout:   5 * time.Second,
				Metrics:        reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			handled := make(chan struct{}, 8)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				c.Handler().ServeHTTP(w, r)
				handled <- struct{}{}
			}))
			t.Cleanup(ts.Close)

			fw := newFakeWorker(t, "w1")
			var stalling atomic.Bool
			slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if stalling.Load() && strings.HasPrefix(r.Method+" "+r.URL.Path, tc.stall) {
					// Drain the body first: the server only notices a
					// client hang-up once the request body is consumed.
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					select {
					case <-r.Context().Done():
						return // the coordinator gave up on this request
					case <-time.After(2 * time.Second):
					}
				}
				fw.ts.Config.Handler.ServeHTTP(w, r)
			}))
			t.Cleanup(slow.Close)
			if err := c.Register(Worker{Name: "w1", URL: slow.URL}); err != nil {
				t.Fatal(err)
			}
			id, code := submitJob(t, ts.URL, 0)
			if code != http.StatusAccepted {
				t.Fatalf("setup submit: status %d", code)
			}
			<-handled
			stalling.Store(true)

			impatient := &http.Client{Timeout: 50 * time.Millisecond}
			for i := 0; i < 2; i++ {
				var err error
				if tc.stall == "POST /v1/jobs" {
					body := fmt.Sprintf(`{"workload":"square","scale":%g,"protocol":"cpelide"}`, 0.06+float64(i)*1e-4)
					_, err = impatient.Post(ts.URL+tc.path(id), "application/json", strings.NewReader(body))
				} else {
					_, err = impatient.Get(ts.URL + tc.path(id))
				}
				if err == nil {
					t.Fatal("request returned before the client timeout")
				}
				<-handled // the coordinator has finished reacting
			}

			for _, ws := range c.Workers() {
				if !ws.Healthy {
					t.Errorf("worker %s marked dead by client timeouts", ws.Name)
				}
			}
			expo := scrape(t, ts.URL)
			if v, ok := metrics.ParseValue(expo, "cluster_proxy_errors_total"); !ok || v != 0 {
				t.Errorf("cluster_proxy_errors_total = %v (ok=%v), want 0", v, ok)
			}
			if n := fw.count(); n != 1 {
				t.Errorf("worker holds %d jobs, want 1 (nothing replayed or placed)", n)
			}
		})
	}
}

// TestDeregisterMovesJobs: a clean deregistration replays the departing
// worker's jobs immediately, without waiting for health probes.
func TestDeregisterMovesJobs(t *testing.T) {
	c, ts := testCoordinator(t, nil)
	w1, w2 := newFakeWorker(t, "w1"), newFakeWorker(t, "w2")
	for _, fw := range []*fakeWorker{w1, w2} {
		if err := c.Register(Worker{Name: fw.name, URL: fw.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}
	const jobs = 20
	for i := 0; i < jobs; i++ {
		submitJob(t, ts.URL, i)
	}
	if w1.count() == 0 || w2.count() == 0 {
		t.Fatalf("expected both workers to hold jobs, got %d/%d", w1.count(), w2.count())
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/w1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: status %d", resp.StatusCode)
	}
	if got := w2.count(); got != jobs {
		t.Fatalf("after deregister w2 holds %d jobs, want all %d", got, jobs)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("square=3, pathfinder/hmg=2 ,btree")
	if err != nil {
		t.Fatal(err)
	}
	want := []MixEntry{
		{Workload: "square", Protocol: "cpelide", Weight: 3},
		{Workload: "pathfinder", Protocol: "hmg", Weight: 2},
		{Workload: "btree", Protocol: "cpelide", Weight: 1},
	}
	if len(mix) != len(want) {
		t.Fatalf("got %d entries, want %d", len(mix), len(want))
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "square=0", "square=x", "/hmg", " , "} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestRouteKey(t *testing.T) {
	a := routeKey("00000000000000ff" + strings.Repeat("0", 48))
	if a != 0xff {
		t.Fatalf("routeKey hex prefix = %#x, want 0xff", a)
	}
	// Non-hex IDs still fold deterministically.
	if routeKey("not-a-hash") != routeKey("not-a-hash") {
		t.Fatal("non-hex fold is unstable")
	}
	if routeKey("not-a-hash") == routeKey("not-a-hash2") {
		t.Fatal("non-hex fold collides trivially")
	}
}
