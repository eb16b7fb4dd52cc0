package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/cluster/diskstore"
	"repro/internal/cluster/journal"
	"repro/internal/metrics"
)

// coordServer runs a coordinator on a real TCP listener so the test can
// kill it and bind a successor to the same address — the client-visible
// shape of a coordinator crash and restart.
type coordServer struct {
	coord *Coordinator
	srv   *http.Server
	addr  string
}

func startCoord(t *testing.T, addr string, opts Options) *coordServer {
	t.Helper()
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// The predecessor's sockets may linger briefly after Close; retry the
	// bind rather than flaking.
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cs := &coordServer{
		coord: coord,
		srv:   &http.Server{Handler: coord.Handler()},
		addr:  ln.Addr().String(),
	}
	go cs.srv.Serve(ln)
	return cs
}

func (cs *coordServer) url() string { return "http://" + cs.addr }

// errCountingTransport counts round trips that fail at the transport level
// (refused or reset connections), the errors a campaign absorbs as
// transient retries. failed is closed when the count first reaches one.
type errCountingTransport struct {
	base   http.RoundTripper
	errors atomic.Int64
	failed chan struct{}
}

func (c *errCountingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil && c.errors.Add(1) == 1 {
		close(c.failed)
	}
	return resp, err
}

// kill drops the listener and every active connection, then stops the
// coordinator. The journal is left exactly as the crash instant had it —
// appends are synced per record, so the successor replays the same state a
// SIGKILL would leave behind.
func (cs *coordServer) kill() {
	cs.srv.Close()
	cs.coord.Close()
}

// TestChaosCoordinatorCrashRecovery is the tentpole scenario: kill the
// coordinator mid-campaign and restart it over the same journal at the same
// address. The campaign's transient-error backoff rides out the outage, the
// journal replays worker membership and unfinished jobs, and not one of the
// 200 submissions is lost.
func TestChaosCoordinatorCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()
	jpath := filepath.Join(t.TempDir(), "coordinator.journal")

	jnl, err := journal.Open(jpath, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cs1 := startCoord(t, "", Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   5 * time.Second,
		Metrics:        metrics.NewRegistry(),
		Journal:        jnl,
	})
	workers := []*e2eWorker{
		newE2EWorker(t, "w1", storeDir),
		newE2EWorker(t, "w2", storeDir),
		newE2EWorker(t, "w3", storeDir),
	}
	for _, w := range workers {
		if err := cs1.coord.Register(Worker{Name: w.name, URL: w.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	base := http.DefaultTransport.(*http.Transport).Clone()
	defer base.CloseIdleConnections()
	tr := &errCountingTransport{base: base, failed: make(chan struct{})}
	campaign := Campaign{
		BaseURL:        cs1.url(),
		Client:         &http.Client{Transport: tr},
		Jobs:           200,
		Distinct:       100,
		Concurrency:    16,
		Scale:          0.05,
		Seed:           42,
		PollInterval:   10 * time.Millisecond,
		JobTimeout:     60 * time.Second,
		RetryBaseDelay: 20 * time.Millisecond,
		RetryMaxDelay:  200 * time.Millisecond,
	}
	type campaignOut struct {
		res *Result
		err error
	}
	done := make(chan campaignOut, 1)
	go func() {
		res, err := campaign.Run(context.Background())
		done <- campaignOut{res, err}
	}()

	// Kill the coordinator once the campaign is visibly in flight.
	killDeadline := time.Now().Add(30 * time.Second)
	for clusterJobs(t, cs1.url()) < 40 {
		if time.Now().After(killDeadline) {
			t.Fatal("campaign never reached 40 jobs; cannot kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cs1.kill()
	t.Log("killed coordinator mid-campaign")

	// Keep the coordinator down until a client has hit the dead address, so
	// the outage is visible to the campaign however fast the restart is.
	select {
	case <-tr.failed:
	case <-time.After(30 * time.Second):
		t.Fatal("no client request failed while the coordinator was down")
	}

	// Restart over the same journal at the same address. Workers do not
	// re-register: membership comes back from the journal.
	jnl2, err := journal.Open(jpath, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered := len(jnl2.PendingJobs())
	if recovered == 0 {
		t.Error("journal recovered 0 unfinished jobs from a mid-flight kill")
	}
	reg2 := metrics.NewRegistry()
	cs2 := startCoord(t, cs1.addr, Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   5 * time.Second,
		Metrics:        reg2,
		Journal:        jnl2,
	})
	defer cs2.kill()
	if got := len(cs2.coord.Workers()); got != 3 {
		t.Errorf("recovered %d workers from journal, want 3", got)
	}
	t.Logf("coordinator restarted: %d unfinished jobs, %d workers recovered",
		recovered, len(cs2.coord.Workers()))

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign: %v", out.err)
	}
	res := out.res
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 200 {
		t.Fatalf("campaign lost jobs across the coordinator crash: %+v", res)
	}
	if res.TransientRetries == 0 {
		t.Error("campaign saw no transient errors despite the coordinator outage")
	}
	t.Logf("campaign: %.1f jobs/s, p99 %.1fms, resubmits %d, transient retries %d (transport errors %d)",
		res.ThroughputJPS, res.P99MS, res.Resubmits, res.TransientRetries, tr.errors.Load())

	expo := scrape(t, cs2.url())
	if v, ok := metrics.ParseValue(expo, "cluster_journal_recovered_jobs"); !ok || v == 0 {
		t.Errorf("cluster_journal_recovered_jobs = %v (ok=%v), want > 0", v, ok)
	}
	if v, ok := metrics.ParseValue(expo, "cluster_journal_errors_total"); !ok || v != 0 {
		t.Errorf("cluster_journal_errors_total = %v (ok=%v), want 0", v, ok)
	}
}

func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosStoreCorruption corrupts a stored report on disk and proves the
// integrity envelope turns it into a recompute, never a wrong answer: the
// corrupt file is quarantined, exactly one job re-simulates, and the
// recomputed bytes are identical to the original result.
func TestChaosStoreCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()

	// Seed the store through one worker and record every result's bytes.
	w1 := newE2EWorker(t, "w1", storeDir)
	campaign := Campaign{
		BaseURL:      w1.ts.URL,
		Jobs:         20,
		Distinct:     20,
		Concurrency:  8,
		Scale:        0.05,
		Seed:         7,
		PollInterval: 5 * time.Millisecond,
		JobTimeout:   60 * time.Second,
	}
	res, err := campaign.Run(context.Background())
	if err != nil || res.Completed != 20 {
		t.Fatalf("seed campaign: res=%+v err=%v", res, err)
	}

	st, err := diskstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	keys := storedKeys(t, storeDir)
	if len(keys) != 20 {
		t.Fatalf("stored %d keys, want 20", len(keys))
	}
	victim := keys[3]
	clean := fetchResult(t, w1.ts.URL, victim)

	// Flip one byte inside the victim's report payload.
	path := filepath.Join(storeDir, victim[:2], victim+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"Cycles":`))
	if i < 0 {
		t.Fatalf("no Cycles field in %s", path)
	}
	b[i+len(`"Cycles":`)] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh worker over the same store must detect the corruption on its
	// first read, quarantine the file, and recompute — byte-identically.
	w2 := newE2EWorker(t, "w2", storeDir)
	campaign.BaseURL = w2.ts.URL
	res2, err := campaign.Run(context.Background())
	if err != nil || res2.Completed != 20 || res2.Lost != 0 || res2.Failed != 0 {
		t.Fatalf("corruption campaign: res=%+v err=%v", res2, err)
	}
	c := w2.farm.Counters()
	if c.StoreErrors != 1 {
		t.Errorf("StoreErrors = %d, want 1 (the corrupted entry)", c.StoreErrors)
	}
	if c.Runs != 1 {
		t.Errorf("Runs = %d, want 1 (only the corrupted job recomputes)", c.Runs)
	}
	if n, err := st.QuarantineCount(); err != nil || n != 1 {
		t.Errorf("quarantine count = %d err=%v, want 1", n, err)
	}
	recomputed := fetchResult(t, w2.ts.URL, victim)
	if !bytes.Equal(clean, recomputed) {
		t.Errorf("recomputed result differs from the original:\n%s\n%s", clean, recomputed)
	}
	// The recompute repaired the store: a third worker serves it cleanly.
	w3 := newE2EWorker(t, "w3", storeDir)
	campaign.BaseURL = w3.ts.URL
	res3, err := campaign.Run(context.Background())
	if err != nil || res3.Completed != 20 {
		t.Fatalf("repair campaign: res=%+v err=%v", res3, err)
	}
	if c := w3.farm.Counters(); c.Runs != 0 || c.StoreErrors != 0 {
		t.Errorf("post-repair counters = %+v, want Runs=0 StoreErrors=0", c)
	}
}

func fetchResult(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			return b
		}
		if time.Now().After(deadline) {
			t.Fatalf("result %s never became ready (last: %d %v)", id, resp.StatusCode, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosConduitCampaign runs a campaign through a fault-injecting
// transport — drops, delays, truncations, 5xx, plus a mid-run partition of
// one worker — and requires zero lost jobs and zero wrong bytes: every
// fault must degrade to a retry, reroute, or recompute.
func TestChaosConduitCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()
	conduit := chaos.NewTransport(nil, chaos.Config{
		Seed:         99,
		DropRate:     0.03,
		DelayRate:    0.05,
		Delay:        5 * time.Millisecond,
		TruncateRate: 0.03,
		Err5xxRate:   0.03,
	})
	reg := metrics.NewRegistry()
	cs := startCoord(t, "", Options{
		HealthInterval: 25 * time.Millisecond,
		FailThreshold:  3,
		ProxyTimeout:   5 * time.Second,
		Metrics:        reg,
		Transport:      conduit,
	})
	defer cs.kill()
	workers := []*e2eWorker{
		newE2EWorker(t, "w1", storeDir),
		newE2EWorker(t, "w2", storeDir),
		newE2EWorker(t, "w3", storeDir),
	}
	for _, w := range workers {
		if err := cs.coord.Register(Worker{Name: w.name, URL: w.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	campaign := Campaign{
		BaseURL:        cs.url(),
		Jobs:           150,
		Distinct:       75,
		Concurrency:    12,
		Scale:          0.05,
		Seed:           11,
		PollInterval:   10 * time.Millisecond,
		JobTimeout:     60 * time.Second,
		RetryBaseDelay: 10 * time.Millisecond,
		RetryMaxDelay:  100 * time.Millisecond,
	}
	type campaignOut struct {
		res *Result
		err error
	}
	done := make(chan campaignOut, 1)
	go func() {
		res, err := campaign.Run(context.Background())
		done <- campaignOut{res, err}
	}()

	// Partition one worker mid-campaign, then heal it.
	deadline := time.Now().Add(30 * time.Second)
	for clusterJobs(t, cs.url()) < 30 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached 30 jobs; cannot partition mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	host := strings.TrimPrefix(workers[2].ts.URL, "http://")
	conduit.SetPartitioned(host, true)
	t.Log("partitioned w3")
	time.Sleep(300 * time.Millisecond)
	conduit.SetPartitioned(host, false)
	t.Log("healed w3")

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign: %v", out.err)
	}
	res := out.res
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 150 {
		t.Fatalf("campaign lost jobs under chaos: %+v", res)
	}
	cc := conduit.Counters()
	if cc.Drops == 0 || cc.Errs5xx == 0 || cc.Partitions == 0 {
		t.Errorf("conduit barely fired: %+v", cc)
	}
	t.Logf("campaign: %.1f jobs/s, p99 %.1fms; conduit %+v", res.ThroughputJPS, res.P99MS, cc)

	// Determinism under chaos: every result must match a clean, fault-free
	// single-node run of the same distinct bodies (fresh store, recomputed
	// from scratch).
	cleanWorker := newE2EWorker(t, "clean", t.TempDir())
	cleanCampaign := campaign
	cleanCampaign.BaseURL = cleanWorker.ts.URL
	cleanRes, err := cleanCampaign.Run(context.Background())
	if err != nil || cleanRes.Completed != 150 {
		t.Fatalf("clean campaign: res=%+v err=%v", cleanRes, err)
	}
	keys := storedKeys(t, storeDir)
	if len(keys) != 75 {
		t.Fatalf("chaos store has %d keys, want 75", len(keys))
	}
	mismatches := 0
	for _, key := range keys[:10] { // spot-check a sample for byte identity
		chaosBytes := fetchResult(t, cs.url(), key)
		cleanBytes := fetchResult(t, cleanWorker.ts.URL, key)
		if !bytes.Equal(chaosBytes, cleanBytes) {
			mismatches++
			t.Errorf("result %s differs between chaos and clean runs", key[:12])
		}
	}
	if mismatches == 0 {
		t.Logf("10/10 spot-checked results byte-identical to the clean run")
	}
}

// TestChaosSlowWorker pairs a fast worker with a slow but live one: the
// slow node has a single farm worker and stalls every request except
// /healthz by 150ms. Under default options the coordinator must neither lose
// a job nor mistake slowness for death: no reroutes, the slow worker still
// healthy, and every distinct body simulated exactly once.
func TestChaosSlowWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not a -short test")
	}
	storeDir := t.TempDir()
	fast := newE2EWorker(t, "fast", storeDir)
	slowInner := newE2EWorkerN(t, "slow", storeDir, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			time.Sleep(150 * time.Millisecond)
		}
		slowInner.srv.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()

	reg := metrics.NewRegistry()
	cs := startCoord(t, "", Options{Metrics: reg})
	defer cs.kill()
	if err := cs.coord.Register(Worker{Name: "fast", URL: fast.ts.URL}); err != nil {
		t.Fatal(err)
	}
	if err := cs.coord.Register(Worker{Name: "slow", URL: slow.URL}); err != nil {
		t.Fatal(err)
	}

	campaign := Campaign{
		BaseURL:      cs.url(),
		Jobs:         60,
		Distinct:     40,
		Concurrency:  8,
		Scale:        0.05,
		Seed:         5,
		PollInterval: 10 * time.Millisecond,
		JobTimeout:   60 * time.Second,
	}
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 60 {
		t.Fatalf("campaign incomplete with a slow worker: %+v", res)
	}
	if res.Runs != 40 {
		t.Errorf("campaign runs = %d, want 40 (one per distinct body)", res.Runs)
	}
	for _, ws := range cs.coord.Workers() {
		if ws.Name == "slow" && !ws.Healthy {
			t.Error("slow worker marked dead; slowness is not failure")
		}
	}
	expo := scrape(t, cs.url())
	if v, ok := metrics.ParseValue(expo, "cluster_reroutes_total"); !ok || v != 0 {
		t.Errorf("cluster_reroutes_total = %v (ok=%v), want 0", v, ok)
	}
	t.Logf("slow-worker campaign: p50 %.1fms, p99 %.1fms, %d runs", res.P50MS, res.P99MS, res.Runs)
}

// storedKeys lists the keys of a diskstore directory's entries, sorted.
func storedKeys(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(files))
	for i, f := range files {
		keys[i] = strings.TrimSuffix(filepath.Base(f), ".json")
	}
	return keys
}
