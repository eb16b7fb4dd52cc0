package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
)

func post(t *testing.T, ts *httptest.Server, body string) (int, StatusResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

func get(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		_ = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

// TestSubmitPollResult drives the happy path: submit, poll to completion,
// fetch the report, and confirm a resubmission is answered from the
// registry while the farm's cache kept the simulation count at one.
func TestSubmitPollResult(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 2})
	defer eng.Close()
	s := New(eng, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	body := `{"workload": "square", "scale": 0.1, "protocol": "cpelide"}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	if len(sr.ID) != 64 {
		t.Fatalf("submit: id %q is not a content hash", sr.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		if code := get(t, ts, "/v1/jobs/"+sr.ID, &st); code != http.StatusOK {
			t.Fatalf("status: got %d, want 200", code)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "error" {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var rep struct {
		Workload string `json:"Workload"`
		Protocol string `json:"Protocol"`
		Cycles   uint64 `json:"Cycles"`
	}
	if code := get(t, ts, "/v1/jobs/"+sr.ID+"/result", &rep); code != http.StatusOK {
		t.Fatalf("result: got %d, want 200", code)
	}
	if rep.Workload != "square" || rep.Protocol != "CPElide" || rep.Cycles == 0 {
		t.Fatalf("result: unexpected report %+v", rep)
	}

	// Identical resubmission: same content-addressed ID, already terminal.
	code, sr2 := post(t, ts, body)
	if code != http.StatusOK || sr2.ID != sr.ID || sr2.Status != "done" {
		t.Fatalf("resubmit: got %d %+v, want 200 done %s", code, sr2, sr.ID)
	}
	if c := eng.Counters(); c.Runs != 1 {
		t.Fatalf("farm ran %d simulations, want 1", c.Runs)
	}

	if code := get(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: got %d, want 404", code)
	}
	if code := get(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", code)
	}
}

// TestBurstBackpressureAndDrain floods a 1-worker, 1-slot-queue server with
// distinct jobs: the server must answer every request with 202/429 only
// (no hangs, no other codes), every accepted job must reach a terminal
// state, Drain must return, and post-drain submissions must get 503.
func TestBurstBackpressureAndDrain(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single dispatcher with a full-size run (~hundreds of ms)
	// so the burst below races against a genuinely busy server.
	code, first := post(t, ts, `{"workload": "square"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202", code)
	}

	const burst = 24
	codes := make([]int, burst)
	ids := make([]string, burst)
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			defer wg.Done()
			// Distinct tiny jobs (iters varies the content hash).
			body := fmt.Sprintf(`{"workload": "square", "scale": 0.05, "iters": %d}`, i+1)
			c, sr := post(t, ts, body)
			codes[i], ids[i] = c, sr.ID
		}(i)
	}
	wg.Wait()

	accepted := []string{first.ID}
	var rejected int
	for i, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted = append(accepted, ids[i])
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("burst request %d: got %d, want 202 or 429", i, c)
		}
	}
	if rejected == 0 {
		t.Fatalf("burst of %d against a 1-slot queue shed no load", burst)
	}
	t.Logf("burst: %d accepted, %d rejected", len(accepted), rejected)

	// Drain must complete and leave every accepted job terminal.
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Drain did not return")
	}
	for _, id := range accepted {
		var st StatusResponse
		if code := get(t, ts, "/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s: got %d, want 200", id, code)
		}
		if st.Status != "done" {
			t.Fatalf("job %s ended as %q: %s", id, st.Status, st.Error)
		}
	}

	if code, _ := post(t, ts, `{"workload": "square", "scale": 0.05, "iters": 99}`); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: got %d, want 503", code)
	}
}

// TestBackpressureRetryAfter pins the 429 contract: a shed submission
// carries a Retry-After hint so well-behaved clients back off instead of
// hammering a saturated server, and a queued job's result poll carries the
// same hint on its 202.
func TestBackpressureRetryAfter(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	postRaw := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Occupy the single dispatcher with a full-size run and wait until it is
	// actually running, so the queue fill below is deterministic.
	code, first := post(t, ts, `{"workload": "square"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: got %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+first.ID, &st)
		if st.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started running (status %q)", st.Status)
		}
		time.Sleep(time.Millisecond)
	}

	// Fill the 1-slot queue, then overflow it.
	code, queued := post(t, ts, `{"workload": "square", "scale": 0.05, "iters": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: got %d, want 202", code)
	}

	resp := postRaw(`{"workload": "square", "scale": 0.05, "iters": 2}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: got %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 Retry-After = %q, want %q", ra, "1")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body should explain the shed (%q, %v)", body.Error, err)
	}

	// A not-yet-terminal job's result poll also hints when to come back.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusAccepted {
		t.Fatalf("queued result poll: got %d, want 202", rr.StatusCode)
	}
	if ra := rr.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("202 Retry-After = %q, want %q", ra, "1")
	}
}

// TestSubmitFaultSpec checks the HTTP surface accepts fault campaigns and
// rejects malformed specs.
func TestSubmitFaultSpec(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	if code, _ := post(t, ts, `{"workload": "square", "faults": "wat=1"}`); code != http.StatusBadRequest {
		t.Fatalf("bad fault spec: got %d, want 400", code)
	}

	body := `{"workload": "square", "scale": 0.05, "protocol": "cpelide", "faults": "drop=0.05,parity=0.01", "fault_seed": 7}`
	code, sr := post(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("fault-campaign submit: got %d, want 202", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+sr.ID, &st)
		if st.Status == "done" {
			break
		}
		if st.Status == "error" {
			t.Fatalf("fault-campaign job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fault-campaign job stuck in %q", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var rep struct {
		StaleReads uint64 `json:"StaleReads"`
		Faults     *struct {
			ReqDrops uint64 `json:"req_drops"`
			AckDrops uint64 `json:"ack_drops"`
		} `json:"Faults"`
	}
	if code := get(t, ts, "/v1/jobs/"+sr.ID+"/result", &rep); code != http.StatusOK {
		t.Fatalf("result: got %d, want 200", code)
	}
	if rep.Faults == nil {
		t.Fatal("fault-campaign report carries no fault counters")
	}
	if rep.StaleReads != 0 {
		t.Fatalf("fault campaign produced %d stale reads; degradation must preserve correctness", rep.StaleReads)
	}

	// A different seed is a different job (content-addressed).
	code, sr2 := post(t, ts, `{"workload": "square", "scale": 0.05, "protocol": "cpelide", "faults": "drop=0.05,parity=0.01", "fault_seed": 8}`)
	if code != http.StatusAccepted || sr2.ID == sr.ID {
		t.Fatalf("distinct fault seed: got %d id=%s, want 202 with a fresh id", code, sr2.ID)
	}
}

// TestSubmitBodyTooLarge checks a submission longer than MaxRequestBytes is
// rejected with the bad_request error rather than read to the end.
func TestSubmitBodyTooLarge(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	// Valid JSON once whitespace is skipped, so only the size is at fault.
	body := `{"workload": "square",` + strings.Repeat(" ", MaxRequestBytes) + `"scale": 0.05}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: got %d, want 400", resp.StatusCode)
	}
	if e := decodeErr(t, resp); e.Code != ErrCodeBadRequest {
		t.Errorf("oversized body: code %q, want %q", e.Code, ErrCodeBadRequest)
	}
}

// TestFigureAndStatsEndpoints exercises the synchronous figure endpoint and
// the stats snapshot.
func TestFigureAndStatsEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("figure endpoint runs full experiment matrices")
	}
	eng := farm.New(farm.Options{Workers: 2})
	defer eng.Close()
	s := New(eng, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	var res struct {
		Title string `json:"Title"`
		Rows  []struct {
			Workload string `json:"Workload"`
		} `json:"Rows"`
	}
	if code := get(t, ts, "/v1/figures/fig9?scale=0.1&workloads=square,btree", &res); code != http.StatusOK {
		t.Fatalf("figure: got %d, want 200", code)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("figure: got %d rows, want 2", len(res.Rows))
	}

	if code := get(t, ts, "/v1/figures/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown figure: got %d, want 404", code)
	}

	var st StatsResponse
	if code := get(t, ts, "/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: got %d, want 200", code)
	}
	if st.Farm.Runs == 0 || st.Workers != 2 {
		t.Fatalf("stats: unexpected snapshot %+v", st)
	}

	// Same figure again: every point is already memoized.
	before := eng.Counters().Runs
	if code := get(t, ts, "/v1/figures/fig9?scale=0.1&workloads=square,btree", nil); code != http.StatusOK {
		t.Fatalf("figure rerun: got %d, want 200", code)
	}
	if after := eng.Counters().Runs; after != before {
		t.Fatalf("figure rerun re-simulated: %d -> %d runs", before, after)
	}
}

// pollDone polls a job's status until it is done, failing on error or after
// 30s.
func pollDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st StatusResponse
		get(t, ts, "/v1/jobs/"+id, &st)
		if st.Status == "done" {
			return
		}
		if st.Status == "error" || time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getBytes fetches path and returns its status and raw body.
func getBytes(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestEvictedJobsAreForgotten pins the server's memory bound: with a
// two-entry farm cache, ten finished jobs leave only the two most recent
// answerable; the rest read 404 not_found, and resubmitting an evicted body
// recomputes a byte-identical report.
func TestEvictedJobsAreForgotten(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1, CacheEntries: 2})
	defer eng.Close()
	s := New(eng, 8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 10
	bodies := make([]string, n)
	ids := make([]string, n)
	reports := make([][]byte, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"workload": "square", "scale": 0.05, "iters": %d}`, i+1)
		code, sr := post(t, ts, bodies[i])
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: got %d, want 202", i, code)
		}
		ids[i] = sr.ID
		pollDone(t, ts, sr.ID)
		code, reports[i] = getBytes(t, ts, "/v1/jobs/"+sr.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %d: got %d, want 200", i, code)
		}
	}
	s.Drain()

	for i, id := range ids {
		resident := i >= n-2
		code, b := getBytes(t, ts, "/v1/jobs/"+id+"/result")
		switch {
		case resident && (code != http.StatusOK || !bytes.Equal(b, reports[i])):
			t.Errorf("resident job %d: got %d, want 200 with its report", i, code)
		case !resident && code != http.StatusNotFound:
			t.Errorf("evicted job %d: got %d, want 404", i, code)
		case !resident:
			var e ErrorResponse
			if err := json.Unmarshal(b, &e); err != nil || e.Code != ErrCodeNotFound {
				t.Errorf("evicted job %d: body %s, want code %q", i, b, ErrCodeNotFound)
			}
		}
	}

	// The drained server refuses work; a fresh one over the same farm
	// recomputes the evicted job exactly.
	s2 := New(eng, 8)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Drain()
	code, sr := post(t, ts2, bodies[0])
	if code != http.StatusAccepted || sr.ID != ids[0] {
		t.Fatalf("resubmit evicted: got %d %+v, want 202 for %s", code, sr, ids[0])
	}
	pollDone(t, ts2, sr.ID)
	if code, b := getBytes(t, ts2, "/v1/jobs/"+sr.ID+"/result"); code != http.StatusOK || !bytes.Equal(b, reports[0]) {
		t.Fatalf("recomputed report: got %d, want 200 with the original bytes", code)
	}
	if c := eng.Counters(); c.Runs != n+1 || c.Evictions != n-1 {
		t.Fatalf("farm runs=%d evictions=%d, want %d and %d", c.Runs, c.Evictions, n+1, n-1)
	}
}

// TestAdmissionLimits rejects requests beyond the admission limits, and a
// stream that binds one chiplet twice, with 400 bad_request before anything
// is allocated, and accepts the limits themselves.
func TestAdmissionLimits(t *testing.T) {
	eng := farm.New(farm.Options{Workers: 1})
	defer eng.Close()
	s := New(eng, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	for _, body := range []string{
		`{"workload": "square", "chiplets": 1000}`,
		`{"workload": "square", "chiplets": -1}`,
		`{"workload": "square", "scale": 4.5}`,
		`{"workload": "square", "iters": 1001}`,
		`{"workload": "square", "protocol": "cpelide", "table_entries": 5000}`,
		`{"workload": "square", "protocol": "hmg", "dir_entries": 1000000}`,
		`{"workload": "square", "protocol": "hmg", "dir_lines_per_entry": 65}`,
		`{"streams": [` + strings.Repeat(`{"workload": "square"},`, MaxStreams) + `{"workload": "square"}]}`,
		`{"streams": [{"workload": "square", "chiplets": [0, 0]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", body, resp.StatusCode)
		}
		if e := decodeErr(t, resp); e.Code != ErrCodeBadRequest {
			t.Errorf("%s: code %q, want %q", body, e.Code, ErrCodeBadRequest)
		}
	}
	at := JobRequest{Workload: "square", Chiplets: MaxChiplets, Scale: MaxScale, Iters: MaxIters,
		TableEntries: MaxTableEntries, DirEntries: MaxDirEntries, DirLinesPerEntry: MaxDirLinesPerEntry}
	if _, err := at.Job(); err != nil {
		t.Fatalf("request at the limits rejected: %v", err)
	}
}

// TestSlowHeaderDisconnected checks the shared HTTP server drops a client
// that sends half a request header and stalls.
func TestSlowHeaderDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer("", http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
	_, err = io.Copy(io.Discard, conn) // returns once the server hangs up
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept a stalled half-header connection open for %v", time.Since(start))
	}
	if took := time.Since(start); took < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", took)
	}
}
