package farm

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// matrix is the ISSUE's equality fixture: >= 3 workloads x 3 protocols.
func matrix() []Job {
	var jobs []Job
	for _, name := range []string{"square", "pathfinder", "btree"} {
		for _, proto := range []cpelide.Protocol{
			cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG,
		} {
			jobs = append(jobs, Job{
				Workload: name,
				Params:   workloads.Params{Scale: 0.1},
				Config:   cpelide.DefaultConfig(4),
				Options:  cpelide.Options{Protocol: proto},
			})
		}
	}
	return jobs
}

func marshal(t *testing.T, rep *cpelide.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelMatchesSerialMatchesCached is the determinism contract: the
// same job matrix run on one worker, on many workers, and from the cache
// yields byte-identical reports.
func TestParallelMatchesSerialMatchesCached(t *testing.T) {
	jobs := matrix()

	serialFarm := New(Options{Workers: 1})
	defer serialFarm.Close()
	serial, err := serialFarm.Do(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	parFarm := New(Options{Workers: 8})
	defer parFarm.Close()
	par, err := parFarm.Do(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := parFarm.Do(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	for i := range jobs {
		s := marshal(t, serial[i])
		if p := marshal(t, par[i]); p != s {
			t.Errorf("%s: parallel report differs from serial", jobs[i].Name())
		}
		if c := marshal(t, cached[i]); c != s {
			t.Errorf("%s: cached report differs from serial", jobs[i].Name())
		}
	}

	c := parFarm.Counters()
	if c.Runs != uint64(len(jobs)) {
		t.Fatalf("parallel farm ran %d simulations, want %d (second batch must be all hits)", c.Runs, len(jobs))
	}
	if c.CacheHits != uint64(len(jobs)) {
		t.Fatalf("second batch produced %d cache hits, want %d", c.CacheHits, len(jobs))
	}
}

// TestSingleFlight launches identical submissions concurrently while the
// (hooked) execution blocks: exactly one computes, the rest piggyback.
func TestSingleFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		started <- struct{}{}
		<-release
		return &cpelide.Report{Workload: j.Workload, Cycles: 42}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 4})
	defer f.Close()

	const n = 8
	job := baseJob()
	var wg sync.WaitGroup
	wg.Add(n)
	reps := make([]*cpelide.Report, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			rep, err := f.Submit(context.Background(), job)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			reps[i] = rep
		}(i)
	}
	<-started // the leader reached the hook; everyone else must now dedup
	close(release)
	wg.Wait()

	c := f.Counters()
	if c.Runs != 1 {
		t.Fatalf("%d identical submissions executed %d times, want 1", n, c.Runs)
	}
	if c.CacheMisses != 1 || c.DedupWaits+c.CacheHits != n-1 {
		t.Fatalf("counter split misses=%d dedup=%d hits=%d, want 1 leader and %d followers",
			c.CacheMisses, c.DedupWaits, c.CacheHits, n-1)
	}
	for i, rep := range reps {
		if rep == nil || rep.Cycles != 42 {
			t.Fatalf("submission %d got report %+v", i, rep)
		}
	}
}

// TestLRUEviction bounds the cache at two entries and pushes three distinct
// jobs through it.
func TestLRUEviction(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, CacheEntries: 2})
	defer f.Close()

	jobFor := func(i int) Job {
		j := baseJob()
		j.Params.Iters = i + 1
		return j
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Submit(context.Background(), jobFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := f.Counters(); c.Evictions != 1 || f.CacheLen() != 2 {
		t.Fatalf("evictions=%d cacheLen=%d, want 1 and 2", c.Evictions, f.CacheLen())
	}
	// Job 0 was evicted (oldest); resubmitting must simulate again.
	if _, err := f.Submit(context.Background(), jobFor(0)); err != nil {
		t.Fatal(err)
	}
	if c := f.Counters(); c.Runs != 4 {
		t.Fatalf("evicted job did not re-run: runs=%d, want 4", c.Runs)
	}
	// Job 2 is still resident.
	if _, err := f.Submit(context.Background(), jobFor(2)); err != nil {
		t.Fatal(err)
	}
	if c := f.Counters(); c.CacheHits != 1 {
		t.Fatalf("resident job missed: hits=%d, want 1", c.CacheHits)
	}
}

// TestPanicIsolation turns a worker panic into a submission error and
// leaves the pool serviceable.
func TestPanicIsolation(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		if j.Params.Iters == 13 {
			panic("unlucky job")
		}
		return &cpelide.Report{Workload: j.Workload}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1})
	defer f.Close()

	bad := baseJob()
	bad.Params.Iters = 13
	if _, err := f.Submit(context.Background(), bad); err == nil {
		t.Fatal("panicking job returned no error")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error %q does not mention the panic", err)
	}
	if c := f.Counters(); c.Panics != 1 || c.Errors != 1 {
		t.Fatalf("panics=%d errors=%d, want 1 and 1", c.Panics, c.Errors)
	}
	// Pool survives: a good job still runs, and the failed key was not cached.
	if _, err := f.Submit(context.Background(), baseJob()); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
	if _, err := f.Submit(context.Background(), bad); err == nil {
		t.Fatal("failed job was memoized")
	}
}

// TestSubmitCanceled covers both cancellation paths: a context canceled
// before submission and one canceled mid-flight.
func TestSubmitCanceled(t *testing.T) {
	release := make(chan struct{})
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		select {
		case <-release:
			return &cpelide.Report{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1})
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Submit(ctx, baseJob()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled submit: got %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.Submit(ctx2, baseJob())
		done <- err
	}()
	cancel2()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	close(release)
}

func TestSubmitAfterClose(t *testing.T) {
	f := New(Options{Workers: 1})
	f.Close()
	f.Close() // idempotent
	if _, err := f.Submit(context.Background(), baseJob()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
}

// TestTraceSpans checks every submission leaves a farm span with a
// terminal state in the recorder.
func TestTraceSpans(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{}, nil
	}
	defer func() { execHook = nil }()

	rec := trace.New(0)
	f := New(Options{Workers: 1, Trace: rec})
	defer f.Close()

	job := baseJob()
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	var doneSpans, cachedSpans int
	for _, e := range rec.Events() {
		if e.Kind != trace.KindJob {
			continue
		}
		switch {
		case strings.Contains(e.Name, "[done]"):
			doneSpans++
			if e.Chiplet < 0 {
				t.Errorf("executed span has no worker: %+v", e)
			}
		case strings.Contains(e.Name, "[cached]"):
			cachedSpans++
			if e.Chiplet != -1 {
				t.Errorf("cache hit span should use worker -1: %+v", e)
			}
		}
	}
	if doneSpans != 1 || cachedSpans != 1 {
		t.Fatalf("trace has %d done and %d cached job spans, want 1 and 1", doneSpans, cachedSpans)
	}
}

// TestLRUEvictionRacesSingleFlight churns a one-slot cache while an
// identical job is in flight: the duplicate submission must piggyback on
// the live flight (evictions never force a recompute of in-flight work),
// and the contested result must still land in the cache afterwards.
func TestLRUEvictionRacesSingleFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		if j.Params.Iters == 0 { // the contested job; churn jobs set Iters
			started <- struct{}{}
			<-release
		}
		return &cpelide.Report{Workload: j.Workload, Cycles: uint64(j.Params.Iters)}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 2, CacheEntries: 1})
	defer f.Close()

	waitFor := func(what string, cond func(Counters) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond(f.Counters()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (counters %+v)", what, f.Counters())
			}
			time.Sleep(time.Millisecond)
		}
	}

	contested := baseJob()
	leaderDone := make(chan *cpelide.Report, 1)
	go func() {
		rep, err := f.Submit(context.Background(), contested)
		if err != nil {
			t.Error(err)
		}
		leaderDone <- rep
	}()
	<-started // the leader is executing and will block until released

	// Churn the one-slot cache so every insertion evicts the previous
	// resident while the contested flight is still live.
	for i := 1; i <= 3; i++ {
		j := baseJob()
		j.Params.Iters = i
		if _, err := f.Submit(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}

	// A duplicate of the contested job must dedup onto the live flight,
	// not become a second leader (its key is long gone from the cache).
	dupDone := make(chan *cpelide.Report, 1)
	go func() {
		rep, err := f.Submit(context.Background(), contested)
		if err != nil {
			t.Error(err)
		}
		dupDone <- rep
	}()
	waitFor("dedup registration", func(c Counters) bool { return c.DedupWaits == 1 })
	close(release)

	lrep, drep := <-leaderDone, <-dupDone
	if lrep != drep {
		t.Fatal("duplicate submission did not share the leader's report")
	}
	c := f.Counters()
	if c.Runs != 4 {
		t.Fatalf("runs=%d, want 4 (3 churn + 1 contested; the duplicate must not recompute)", c.Runs)
	}
	if c.Evictions != 3 {
		t.Fatalf("evictions=%d, want 3 (churn twice + contested result displacing the last churn job)", c.Evictions)
	}
	// The contested result was cached on completion despite the churn.
	if _, err := f.Submit(context.Background(), contested); err != nil {
		t.Fatal(err)
	}
	if got := f.Counters().CacheHits; got != 1 {
		t.Fatalf("post-flight resubmit hits=%d, want 1 (result must be resident)", got)
	}
	if n := inflightLen(f); n != 0 {
		t.Fatalf("inflight map holds %d entries after all flights resolved, want 0", n)
	}

	// Re-admission after eviction: push the contested result out of the
	// one-slot cache, then resubmit it. The key is gone from both cache and
	// inflight, so this must start a brand-new flight (not dedup against a
	// stale entry) and the fresh result must be re-admitted to the cache.
	evictor := baseJob()
	evictor.Params.Iters = 4
	if _, err := f.Submit(context.Background(), evictor); err != nil {
		t.Fatal(err)
	}
	rep2, err := f.Submit(context.Background(), contested)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 == lrep {
		t.Fatal("post-eviction resubmit returned the old flight's report; want a recompute")
	}
	c = f.Counters()
	if c.Runs != 6 {
		t.Fatalf("runs=%d, want 6 (evictor + re-admitted contested job both execute)", c.Runs)
	}
	if c.DedupWaits != 1 {
		t.Fatalf("dedup waits=%d, want 1 (re-admission must not count as a dedup)", c.DedupWaits)
	}
	if _, err := f.Submit(context.Background(), contested); err != nil {
		t.Fatal(err)
	}
	if got := f.Counters().CacheHits; got != 2 {
		t.Fatalf("hits=%d, want 2 (re-admitted result must be resident again)", got)
	}

	// Canceled submissions must not leak flights either: cancel a queued
	// job before it runs and verify the inflight map drains.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := baseJob()
	canceled.Params.Iters = 99
	if _, err := f.Submit(ctx, canceled); err == nil {
		t.Fatal("submit with canceled context succeeded")
	}
	if n := inflightLen(f); n != 0 {
		t.Fatalf("inflight map holds %d entries after cancel/evict scenarios, want 0", n)
	}
}

// inflightLen reads the single-flight registry size under the farm lock.
func inflightLen(f *Farm) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.inflight)
}

// TestJobTimeout covers the per-job deadline: a job that outlives it
// fails with ErrJobTimeout on its only attempt, and the pool stays usable.
func TestJobTimeout(t *testing.T) {
	var mu sync.Mutex
	attempts := 0
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		if j.Params.Iters == 13 { // the hopeless job hangs
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &cpelide.Report{Cycles: 9}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer f.Close()

	hopeless := baseJob()
	hopeless.Params.Iters = 13
	if _, err := f.Submit(context.Background(), hopeless); !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("got %v, want ErrJobTimeout", err)
	}
	if c := f.Counters(); c.Timeouts != 1 || c.Errors != 1 || attempts != 1 {
		t.Fatalf("timeouts=%d errors=%d attempts=%d, want 1, 1 and 1 (no retry)", c.Timeouts, c.Errors, attempts)
	}
	if rep, err := f.Submit(context.Background(), baseJob()); err != nil || rep.Cycles != 9 {
		t.Fatalf("pool unusable after a timeout: rep=%+v err=%v", rep, err)
	}
}

// TestDoOrderAndError checks Do returns reports in job order and surfaces
// the first real failure.
func TestDoOrderAndError(t *testing.T) {
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		if j.Workload == "bfs" {
			return nil, errors.New("boom")
		}
		return &cpelide.Report{Workload: j.Workload}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 2})
	defer f.Close()

	jobs := []Job{baseJob(), baseJob(), baseJob()}
	jobs[1].Workload = "btree"
	jobs[2].Workload = "pathfinder"
	reps, err := f.Do(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"square", "btree", "pathfinder"} {
		if reps[i].Workload != want {
			t.Fatalf("reps[%d].Workload=%q, want %q", i, reps[i].Workload, want)
		}
	}

	bad := append([]Job{}, jobs...)
	bad[1].Workload = "bfs"
	if _, err := f.Do(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Do error = %v, want the job failure", err)
	}
}

// TestStartLookupLifecycle walks keys through the serving path: Start
// registers a flight without waiting, Lookup reports it queued, then
// running, then done; the waiting-flight bound sheds new work; and a
// failed run is reported, not re-run, until it is forgotten.
func TestStartLookupLifecycle(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	runs := map[int]int{}
	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		mu.Lock()
		runs[j.Params.Iters]++
		mu.Unlock()
		switch {
		case j.Params.Iters == 1:
			<-release
		case j.Params.Iters >= 13:
			return nil, errors.New("deterministic failure")
		}
		return &cpelide.Report{Cycles: uint64(j.Params.Iters)}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1})
	defer f.Close()
	jobFor := func(i int) Job {
		j := baseJob()
		j.Params.Iters = i
		return j
	}
	waitState := func(key string, want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for f.Lookup(key).State != want {
			if time.Now().After(deadline) {
				t.Fatalf("key stuck in %v, want %v", f.Lookup(key).State, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if st := f.Lookup(mustKey(t, jobFor(1))); st.State != Unknown {
		t.Fatalf("unseen key: %v", st.State)
	}
	slow, st, err := f.Start(jobFor(1), 1)
	if err != nil || st.State != Queued {
		t.Fatalf("start: %v %v, want queued", st.State, err)
	}
	waitState(slow, Running)
	queued, st, err := f.Start(jobFor(2), 1)
	if err != nil || st.State != Queued {
		t.Fatalf("second start: %v %v, want queued", st.State, err)
	}
	if _, _, err := f.Start(jobFor(3), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third start with one flight waiting: %v, want ErrQueueFull", err)
	}
	if _, st, _ := f.Start(jobFor(1), 1); st.State != Running {
		t.Fatalf("identical start: %v, want running", st.State)
	}
	close(release)
	f.WaitIdle()
	for _, key := range []string{slow, queued} {
		if st := f.Lookup(key); st.State != Done || st.Report == nil {
			t.Fatalf("after WaitIdle: %v, want done with a report", st.State)
		}
	}
	if c := f.Counters(); c.Jobs != 4 || c.DedupWaits != 1 || c.CacheMisses != 2 || c.Runs != 2 {
		t.Fatalf("counters %+v, want 4 jobs (one shed), 1 dedup, 2 misses, 2 runs", c)
	}

	// Failures are remembered, answered without re-running, and bounded.
	var failed []string
	for i := 0; i < recentFailures+1; i++ {
		key, _, err := f.Start(jobFor(13+i), 1)
		if err != nil {
			t.Fatal(err)
		}
		failed = append(failed, key)
		f.WaitIdle() // fail in submission order
	}
	if st := f.Lookup(failed[0]); st.State != Unknown {
		t.Fatalf("oldest failure: %v, want forgotten", st.State)
	}
	last := failed[len(failed)-1]
	if st := f.Lookup(last); st.State != Failed || st.Err == nil {
		t.Fatalf("latest failure: %v %v, want failed", st.State, st.Err)
	}
	_, st, _ = f.Start(jobFor(13+recentFailures), 1)
	mu.Lock()
	n := runs[13+recentFailures]
	mu.Unlock()
	if st.State != Failed || n != 1 {
		t.Fatalf("resubmitted failure: %v after %d runs, want failed and not re-run", st.State, n)
	}
}
