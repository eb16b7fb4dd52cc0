package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/diskstore"
	"repro/internal/farm"
	"repro/internal/metrics"
	"repro/internal/server"
)

// e2eWorker is a real cpelide-server (farm + HTTP surface) on a shared
// persistent store, standing in for one cluster node.
type e2eWorker struct {
	name string
	farm *farm.Farm
	srv  *server.Server
	ts   *httptest.Server
}

func newE2EWorker(t *testing.T, name, storeDir string) *e2eWorker {
	t.Helper()
	return newE2EWorkerN(t, name, storeDir, 2)
}

// newE2EWorkerN is newE2EWorker with farmWorkers concurrent simulations.
func newE2EWorkerN(t *testing.T, name, storeDir string, farmWorkers int) *e2eWorker {
	t.Helper()
	st, err := diskstore.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	eng := farm.New(farm.Options{Workers: farmWorkers, Store: st})
	t.Cleanup(eng.Close)
	s := server.New(eng, 64)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &e2eWorker{name: name, farm: eng, srv: s, ts: ts}
}

// kill simulates a node crash: drop every connection and stop listening.
func (w *e2eWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// clusterJobs sums the farm job counters the coordinator currently sees.
func clusterJobs(t *testing.T, coordURL string) uint64 {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var cs ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return 0
	}
	return cs.Farm.Jobs
}

// TestClusterE2E is the ISSUE's acceptance scenario: a 3-node cluster runs a
// 200-job campaign (100 distinct bodies, each submitted twice) while one
// worker is killed mid-run — zero jobs lost. Then a fresh coordinator and a
// fresh worker over the same store directory replay the campaign and serve
// everything from the persistent store without a single new simulation.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e is not a -short test")
	}
	storeDir := t.TempDir()

	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(Options{
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		ProxyTimeout:   5 * time.Second,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord.Handler())
	workers := []*e2eWorker{
		newE2EWorker(t, "w1", storeDir),
		newE2EWorker(t, "w2", storeDir),
		newE2EWorker(t, "w3", storeDir),
	}
	for _, w := range workers {
		if err := coord.Register(Worker{Name: w.name, URL: w.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}

	campaign := Campaign{
		BaseURL:      coordTS.URL,
		Jobs:         200,
		Distinct:     100,
		Concurrency:  16,
		Scale:        0.05,
		Seed:         42,
		PollInterval: 10 * time.Millisecond,
		JobTimeout:   60 * time.Second,
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

	// Kill one worker once the campaign is visibly in flight.
	killDeadline := time.Now().Add(30 * time.Second)
	for clusterJobs(t, coordTS.URL) < 40 {
		if time.Now().After(killDeadline) {
			t.Fatal("campaign never reached 40 jobs; cannot kill mid-run")
		}
		time.Sleep(10 * time.Millisecond)
	}
	workers[1].kill()
	t.Log("killed w2 mid-campaign")

	out := <-done
	if out.err != nil {
		t.Fatalf("campaign: %v", out.err)
	}
	res := out.res
	if res.Lost != 0 || res.Failed != 0 || res.Completed != 200 {
		t.Fatalf("campaign lost jobs across the kill: %+v", res)
	}
	t.Logf("campaign 1: %.1f jobs/s, p99 %.1fms, resubmits %d, hit rate %.2f",
		res.ThroughputJPS, res.P99MS, res.Resubmits, res.CacheHitRate)

	// The kill must have been noticed: two healthy workers and at least one
	// Maglev reconvergence beyond the three registrations.
	mresp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if v, ok := metrics.ParseValue(string(expo), "cluster_workers_healthy"); !ok || v != 2 {
		t.Errorf("cluster_workers_healthy = %v (ok=%v), want 2", v, ok)
	}
	if v, ok := metrics.ParseValue(string(expo), "cluster_maglev_rebuilds_total"); !ok || v < 4 {
		t.Errorf("cluster_maglev_rebuilds_total = %v (ok=%v), want >= 4", v, ok)
	}

	// Stop the whole first deployment.
	coordTS.Close()
	coord.Close()
	workers[0].kill()
	workers[2].kill()

	// Restart story: new coordinator, one brand-new worker, same store dir.
	// Every result must come off disk — zero new simulations.
	coord2, err := NewCoordinator(Options{
		HealthInterval: 20 * time.Millisecond,
		Metrics:        metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	coordTS2 := httptest.NewServer(coord2.Handler())
	defer coordTS2.Close()
	fresh := newE2EWorker(t, "w4", storeDir)
	if err := coord2.Register(Worker{Name: fresh.name, URL: fresh.ts.URL}); err != nil {
		t.Fatal(err)
	}

	campaign.BaseURL = coordTS2.URL
	res2, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatalf("restart campaign: %v", err)
	}
	if res2.Lost != 0 || res2.Failed != 0 || res2.Completed != 200 {
		t.Fatalf("restart campaign incomplete: %+v", res2)
	}
	if res2.Runs != 0 {
		t.Errorf("restart campaign re-simulated %d jobs; store should have served all", res2.Runs)
	}
	if res2.StoreHits != 100 {
		t.Errorf("restart campaign store hits = %d, want 100 (one per distinct body)", res2.StoreHits)
	}
	c := fresh.farm.Counters()
	if c.StoreHits != 100 || c.Runs != 0 {
		t.Errorf("fresh worker counters = %+v, want StoreHits=100 Runs=0", c)
	}
	t.Logf("campaign 2 (restart): %.1f jobs/s, p99 %.1fms, store hits %d",
		res2.ThroughputJPS, res2.P99MS, res2.StoreHits)
}

// TestCoordinatorForgetsFinishedJobs checks the coordinator holds a job's
// body only until the job is seen finished: after a campaign nothing is
// tracked, and a finished ID is still answered through the coordinator by
// its content-hash owner.
func TestCoordinatorForgetsFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e is not a -short test")
	}
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(Options{HealthInterval: 20 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coordTS := httptest.NewServer(coord.Handler())
	defer coordTS.Close()
	for _, name := range []string{"w1", "w2"} {
		w := newE2EWorker(t, name, t.TempDir())
		if err := coord.Register(Worker{Name: name, URL: w.ts.URL}); err != nil {
			t.Fatal(err)
		}
	}
	tracked := func() float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		v, ok := metrics.ParseValue(buf.String(), "cluster_jobs_tracked")
		if !ok {
			t.Fatal("no cluster_jobs_tracked series")
		}
		return v
	}

	campaign := Campaign{
		BaseURL: coordTS.URL, Jobs: 40, Distinct: 20, Concurrency: 8, Scale: 0.05, Seed: 3,
		PollInterval: 5 * time.Millisecond, JobTimeout: 60 * time.Second,
	}
	res, err := campaign.Run(context.Background())
	if err != nil || res.Completed != 40 {
		t.Fatalf("campaign: res=%+v err=%v", res, err)
	}
	if n := tracked(); n != 0 {
		t.Fatalf("cluster_jobs_tracked = %v after the campaign, want 0", n)
	}

	resp, err := http.Post(coordTS.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload": "square", "scale": 0.07}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr server.StatusResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	for deadline := time.Now().Add(30 * time.Second); sr.Status != "done"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) || sr.Status == "error" {
			t.Fatalf("job did not finish: %+v", sr)
		}
		resp, err := http.Get(coordTS.URL + "/v1/jobs/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
	}
	if n := tracked(); n != 0 {
		t.Fatalf("cluster_jobs_tracked = %v after the job was seen done, want 0", n)
	}
	resp, err = http.Get(coordTS.URL + "/v1/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(rep, []byte(`"Cycles"`)) {
		t.Fatalf("result of a forgotten job: %d %.80s, want 200 with its report", resp.StatusCode, rep)
	}
}
