package farm

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro"
	"repro/internal/cluster/diskstore"
	"repro/internal/workloads"
)

// memStore is an in-memory Store for tests, with optional injected failures.
type memStore struct {
	mu     sync.Mutex
	m      map[string]*cpelide.Report
	getErr error
	putErr error
	gets   int
	puts   int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*cpelide.Report)} }

func (s *memStore) Get(key string) (*cpelide.Report, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.getErr != nil {
		return nil, false, s.getErr
	}
	rep, ok := s.m[key]
	return rep, ok, nil
}

func (s *memStore) Put(key string, rep *cpelide.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	s.m[key] = rep
	return nil
}

// TestStoreHitSkipsRun: a flight whose key is already in the persistent store
// resolves without simulating, lands in the LRU, and counts as a store hit.
func TestStoreHitSkipsRun(t *testing.T) {
	job := baseJob()
	key := mustKey(t, job)
	st := newMemStore()
	st.m[key] = &cpelide.Report{Workload: "square", Cycles: 42}

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		t.Error("execHook called despite store hit")
		return nil, errors.New("must not run")
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	rep, err := f.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 42 {
		t.Fatalf("got Cycles=%d, want the stored report", rep.Cycles)
	}
	c := f.Counters()
	if c.StoreHits != 1 || c.Runs != 0 || c.StorePuts != 0 {
		t.Fatalf("counters = %+v, want StoreHits=1 Runs=0 StorePuts=0", c)
	}

	// The hit populated the LRU: a re-submit is a cache hit, not another
	// store read.
	gets := st.gets
	if _, err := f.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	c = f.Counters()
	if c.CacheHits != 1 || st.gets != gets {
		t.Fatalf("re-submit: CacheHits=%d storeGets=%d->%d, want a pure LRU hit", c.CacheHits, gets, st.gets)
	}
}

// TestRunWritesThrough: a fresh simulation is written back to the store.
func TestRunWritesThrough(t *testing.T) {
	job := baseJob()
	key := mustKey(t, job)
	st := newMemStore()

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload, Cycles: 7}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	if _, err := f.Submit(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	c := f.Counters()
	if c.Runs != 1 || c.StorePuts != 1 || c.StoreHits != 0 {
		t.Fatalf("counters = %+v, want Runs=1 StorePuts=1", c)
	}
	if got, ok := st.m[key]; !ok || got.Cycles != 7 {
		t.Fatalf("store after run: ok=%v rep=%+v, want the fresh report under %s", ok, got, key)
	}
}

// TestStoreErrorsDoNotFailJobs: a broken store degrades to a pass-through —
// the job still runs and succeeds, with both failures counted.
func TestStoreErrorsDoNotFailJobs(t *testing.T) {
	st := newMemStore()
	st.getErr = errors.New("disk on fire")
	st.putErr = errors.New("disk still on fire")

	execHook = func(ctx context.Context, j Job) (*cpelide.Report, error) {
		return &cpelide.Report{Workload: j.Workload, Cycles: 9}, nil
	}
	defer func() { execHook = nil }()

	f := New(Options{Workers: 1, Store: st})
	defer f.Close()

	rep, err := f.Submit(context.Background(), baseJob())
	if err != nil || rep.Cycles != 9 {
		t.Fatalf("submit with broken store: rep=%+v err=%v", rep, err)
	}
	c := f.Counters()
	if c.StoreErrors != 2 || c.Runs != 1 || c.StoreHits != 0 || c.StorePuts != 0 {
		t.Fatalf("counters = %+v, want StoreErrors=2 (one read, one write) Runs=1", c)
	}
}

// TestDiskstoreBackedFarm is the restart story end to end: one farm computes
// and persists, a second farm over the same directory serves from disk
// without re-simulating.
func TestDiskstoreBackedFarm(t *testing.T) {
	dir := t.TempDir()
	st1, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := baseJob()
	job.Params = workloads.Params{Scale: 0.05}

	f1 := New(Options{Workers: 2, Store: st1})
	rep1, err := f1.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if c := f1.Counters(); c.Runs != 1 || c.StorePuts != 1 {
		t.Fatalf("first farm counters = %+v, want Runs=1 StorePuts=1", c)
	}
	f1.Close()

	st2, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f2 := New(Options{Workers: 2, Store: st2})
	defer f2.Close()
	rep2, err := f2.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	c := f2.Counters()
	if c.StoreHits != 1 || c.Runs != 0 {
		t.Fatalf("restarted farm counters = %+v, want StoreHits=1 Runs=0", c)
	}
	if marshal(t, rep1) != marshal(t, rep2) {
		t.Fatal("report from disk differs from the freshly computed one")
	}

	// A third farm over the same directory answers a lookup from disk
	// without a submission, and keeps the report in its cache.
	st3, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f3 := New(Options{Workers: 2, Store: st3})
	defer f3.Close()
	got := f3.Lookup(mustKey(t, job))
	if got.State != Done || marshal(t, got.Report) != marshal(t, rep1) {
		t.Fatalf("lookup over the store: %v, want the stored report", got.State)
	}
	if c := f3.Counters(); c.StoreHits != 1 || c.Runs != 0 || f3.CacheLen() != 1 {
		t.Fatalf("lookup counters = %+v cacheLen=%d, want StoreHits=1 and a cached report", c, f3.CacheLen())
	}
}
