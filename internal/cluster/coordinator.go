// Package cluster turns N independent cpelide-server processes into one
// experiment farm. A Coordinator fronts the workers: submissions are routed
// by their content hash through a Maglev table (weighted, minimal disruption
// on membership change), worker health is polled continuously, and jobs
// tracked on a dead worker are resubmitted to the surviving ones. Because
// job IDs are content hashes of deterministic simulations, re-execution
// after a reroute returns byte-identical results — the cluster offers
// at-most-once observable semantics without distributed consensus. Workers
// pointed at one shared diskstore directory make reroutes and restarts
// cheap: the new owner usually finds the result already on disk.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/journal"
	"repro/internal/cluster/maglev"
	"repro/internal/metrics"
)

// Sentinel errors for routing failures; test with errors.Is.
var (
	// ErrNoWorkers means no healthy worker is registered to take a job.
	ErrNoWorkers = errors.New("cluster: no healthy workers")
	// ErrJobLost means a job could not be placed on any worker despite
	// retries; callers should resubmit.
	ErrJobLost = errors.New("cluster: job lost")
)

// Options tunes a Coordinator. The zero value is production-usable.
type Options struct {
	// TableSize is the Maglev lookup-table size; 0 uses maglev.SmallM.
	// Must be prime.
	TableSize uint64
	// HealthInterval paces the worker health loop (default 250ms).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failed probes mark a worker
	// dead (default 2).
	FailThreshold int
	// ProxyTimeout bounds each proxied request (default 30s). Simulations
	// run asynchronously on the worker, so this only covers the HTTP
	// round-trip, not job execution.
	ProxyTimeout time.Duration
	// Metrics, when non-nil, receives the cluster series. Nil disables.
	Metrics *metrics.Registry
	// Logger receives structured logs; nil discards.
	Logger *slog.Logger

	// Journal, when non-nil, is the coordinator's write-ahead log: accepted
	// job bodies, terminal states, and worker membership are appended to it,
	// and a coordinator built over an existing journal recovers that state —
	// unfinished jobs are replayed onto the worker set, so a SIGKILL
	// mid-campaign loses nothing. The coordinator owns the journal and
	// closes it in Close.
	Journal *journal.Journal
	// Transport overrides the HTTP transport used to reach workers; nil
	// uses http.DefaultTransport. The chaos harness injects faults here.
	Transport http.RoundTripper
}

// workerState is one registered worker plus its health bookkeeping.
type workerState struct {
	Worker
	healthy bool
	fails   int // consecutive failed probes
}

// trackedJob is one unfinished submission the coordinator has placed. The
// original body is kept so the job can be replayed verbatim on another
// worker if its owner dies before the result is fetched; once a terminal
// state is observed the job is forgotten, body and all.
type trackedJob struct {
	id   string
	body []byte
	node string
	done bool // forgotten; a placement still in progress must not re-track it
}

// Coordinator routes jobs to workers and keeps them placed across failures.
type Coordinator struct {
	opts Options
	hc   *http.Client
	log  *slog.Logger
	reg  *metrics.Registry
	jnl  *journal.Journal

	mu      sync.Mutex
	table   *maglev.Table
	workers map[string]*workerState
	jobs    map[string]*trackedJob

	routed      map[string]*metrics.Counter // per-node jobs routed
	reroutes    *metrics.Counter
	proxyErrors *metrics.Counter
	remapped    *metrics.Counter
	rebuilds    *metrics.Counter
	journalErrs *metrics.Counter
	replayed    *metrics.Counter
	submitLat   *metrics.Histogram

	replaying  atomic.Bool // one replayUnplaced goroutine at a time
	healthWG   sync.WaitGroup
	healthStop chan struct{}
}

// NewCoordinator builds a coordinator and starts its health loop. Call
// Close to stop it.
func NewCoordinator(o Options) (*Coordinator, error) {
	if o.TableSize == 0 {
		o.TableSize = maglev.SmallM
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 250 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.ProxyTimeout <= 0 {
		o.ProxyTimeout = 30 * time.Second
	}
	t, err := maglev.New(o.TableSize)
	if err != nil {
		return nil, err
	}
	log := o.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Coordinator{
		opts:       o,
		hc:         &http.Client{Timeout: o.ProxyTimeout, Transport: o.Transport},
		log:        log,
		reg:        o.Metrics,
		jnl:        o.Journal,
		table:      t,
		workers:    make(map[string]*workerState),
		jobs:       make(map[string]*trackedJob),
		routed:     make(map[string]*metrics.Counter),
		healthStop: make(chan struct{}),
	}
	c.reroutes = c.reg.Counter("cluster_reroutes_total",
		"Jobs replayed onto a surviving worker after their owner died.")
	c.proxyErrors = c.reg.Counter("cluster_proxy_errors_total",
		"Failed round-trips to workers (the request may still succeed on retry).")
	c.remapped = c.reg.Counter("cluster_maglev_remapped_slots_total",
		"Lookup-table slots that changed owner across all rebuilds.")
	c.rebuilds = c.reg.Counter("cluster_maglev_rebuilds_total",
		"Maglev table rebuilds from membership or health changes.")
	c.journalErrs = c.reg.Counter("cluster_journal_errors_total",
		"Journal appends that failed (recovery coverage degraded, requests unaffected).")
	c.replayed = c.reg.Counter("cluster_journal_replayed_total",
		"Journal-recovered jobs re-placed onto workers after a restart.")
	c.submitLat = c.reg.Histogram("cluster_submit_latency_us",
		"Round-trip latency of job submits to workers, microseconds.")
	c.reg.GaugeFunc("cluster_workers_healthy", "Registered workers currently passing health checks.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := int64(0)
		for _, w := range c.workers {
			if w.healthy {
				n++
			}
		}
		return n
	})
	c.reg.GaugeFunc("cluster_workers_total", "Registered workers, healthy or not.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.workers))
	})
	c.reg.GaugeFunc("cluster_jobs_tracked", "Placed jobs not yet observed finished.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.jobs))
	})
	if c.jnl != nil {
		c.reg.GaugeFunc("cluster_journal_size_bytes", "Current size of the write-ahead journal.", func() int64 {
			return c.jnl.Size()
		})
		c.reg.GaugeFunc("cluster_journal_appends_total", "Records appended to the journal since open.", func() int64 {
			return int64(c.jnl.Stats().Appends)
		})
		c.reg.GaugeFunc("cluster_journal_compactions_total", "Journal compactions since open.", func() int64 {
			return int64(c.jnl.Stats().Compactions)
		})
		c.reg.GaugeFunc("cluster_journal_recovered_jobs", "Unfinished jobs recovered from the journal at open.", func() int64 {
			return int64(c.jnl.Stats().RecoveredJobs)
		})
		c.recoverFromJournal()
	}
	c.healthWG.Add(1)
	go c.healthLoop()
	return c, nil
}

// recoverFromJournal loads the journal's replayed state — worker membership
// and unfinished jobs — into the coordinator before it starts serving. The
// health loop immediately validates the recovered workers (dead ones fail
// their probes and drop out), and recovered jobs are re-placed by
// replayUnplaced or by the first client poll, whichever comes first.
func (c *Coordinator) recoverFromJournal() {
	c.mu.Lock()
	for name, body := range c.jnl.Workers() {
		var w Worker
		if err := json.Unmarshal(body, &w); err != nil || w.Name == "" || w.URL == "" {
			c.log.Error("journal: bad worker record", "name", name, "err", err)
			continue
		}
		if w.Weight <= 0 {
			w.Weight = 1
		}
		c.workers[w.Name] = &workerState{Worker: w, healthy: true}
	}
	pending := c.jnl.PendingJobs()
	for id, body := range pending {
		c.jobs[id] = &trackedJob{id: id, body: body}
	}
	if len(c.workers) > 0 {
		c.rebuildLocked()
	}
	workers, jobs := len(c.workers), len(c.jobs)
	c.mu.Unlock()
	if workers+jobs > 0 {
		c.log.Info("journal recovery", "workers", workers, "unfinished_jobs", jobs,
			"truncated_bytes", c.jnl.Stats().TruncatedBytes)
	}
	if jobs > 0 {
		c.replayUnplaced()
	}
}

// replayUnplaced places every tracked job that has no owner (recovered from
// the journal, or whose placement failed outright) onto the current worker
// set. At most one replay pass runs at a time; it is kicked at recovery and
// whenever a worker (re)registers.
func (c *Coordinator) replayUnplaced() {
	if !c.replaying.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer c.replaying.Store(false)
		c.mu.Lock()
		var moving []*trackedJob
		for _, tj := range c.jobs {
			if tj.node == "" {
				moving = append(moving, tj)
			}
		}
		c.mu.Unlock()
		if len(moving) == 0 {
			return
		}
		// Deterministic order so recovery runs are comparable.
		sort.Slice(moving, func(i, j int) bool { return moving[i].id < moving[j].id })
		placed := 0
		for _, tj := range moving {
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProxyTimeout)
			resp, err := c.place(ctx, tj)
			cancel()
			if err != nil {
				// Stays unplaced; the next registration or client poll
				// retries it.
				c.log.Error("replay failed", "job_id", tj.id, "err", err)
				continue
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
			resp.Body.Close()
			c.replayed.Inc()
			placed++
		}
		c.log.Info("replayed recovered jobs", "placed", placed, "of", len(moving))
	}()
}

// journalAccept records an accepted job. Journal failures are counted and
// logged but never fail the request: the journal is a recovery accelerator,
// not an admission gate.
func (c *Coordinator) journalAccept(id string, body []byte) {
	if c.jnl == nil {
		return
	}
	if err := c.jnl.Accept(id, body); err != nil {
		c.journalErrs.Inc()
		c.log.Error("journal accept", "job_id", id, "err", err)
	}
}

// journalDone records a job reaching a terminal state.
func (c *Coordinator) journalDone(id string) {
	if c.jnl == nil {
		return
	}
	if err := c.jnl.Done(id); err != nil {
		c.journalErrs.Inc()
		c.log.Error("journal done", "job_id", id, "err", err)
	}
}

// Close stops the health loop and closes the journal. In-flight proxied
// requests finish on their own timeouts.
func (c *Coordinator) Close() {
	close(c.healthStop)
	c.healthWG.Wait()
	if c.jnl != nil {
		if err := c.jnl.Close(); err != nil {
			c.log.Error("journal close", "err", err)
		}
	}
}

// routedCounter returns the per-node routing counter, creating the labeled
// series on first use.
func (c *Coordinator) routedCounter(node string) *metrics.Counter {
	if ctr, ok := c.routed[node]; ok {
		return ctr
	}
	ctr := c.reg.Counter(fmt.Sprintf("cluster_jobs_routed_total{node=%q}", node),
		"Jobs routed to each worker.")
	c.routed[node] = ctr
	return ctr
}

// rebuildLocked reprograms the Maglev table from the currently healthy
// workers. Callers hold c.mu.
func (c *Coordinator) rebuildLocked() {
	weights := make(map[string]int)
	for name, w := range c.workers {
		if w.healthy {
			weights[name] = w.Weight
		}
	}
	moved, err := c.table.Apply(weights)
	if err != nil {
		// Apply only fails on invalid weights, which registration rejects.
		c.log.Error("maglev rebuild", "err", err)
		return
	}
	c.rebuilds.Inc()
	c.remapped.Add(uint64(moved))
	c.log.Info("maglev rebuilt", "healthy", len(weights), "remapped_slots", moved)
}

// Register adds or updates a worker and reprograms the routing table.
// Re-registering an identical healthy worker is a no-op (workers retry
// registration across coordinator restarts), so it neither churns the table
// nor grows the journal.
func (c *Coordinator) Register(w Worker) error {
	if w.Name == "" || w.URL == "" {
		return fmt.Errorf("cluster: registration needs name and url, got %+v", w)
	}
	if w.Weight <= 0 {
		w.Weight = 1
	}
	c.mu.Lock()
	if prev, ok := c.workers[w.Name]; ok && prev.Worker == w && prev.healthy {
		c.mu.Unlock()
		return nil
	}
	c.workers[w.Name] = &workerState{Worker: w, healthy: true}
	c.rebuildLocked()
	c.mu.Unlock()
	if c.jnl != nil {
		body, err := json.Marshal(w)
		if err == nil {
			err = c.jnl.Worker(w.Name, body)
		}
		if err != nil {
			c.journalErrs.Inc()
			c.log.Error("journal worker", "node", w.Name, "err", err)
		}
	}
	c.log.Info("worker registered", "node", w.Name, "url", w.URL, "weight", w.Weight)
	c.replayUnplaced()
	return nil
}

// Deregister removes a worker (clean shutdown path) and reroutes its jobs.
func (c *Coordinator) Deregister(name string) bool {
	c.mu.Lock()
	_, ok := c.workers[name]
	delete(c.workers, name)
	if ok {
		c.rebuildLocked()
	}
	c.mu.Unlock()
	if ok {
		if c.jnl != nil {
			if err := c.jnl.WorkerGone(name); err != nil {
				c.journalErrs.Inc()
				c.log.Error("journal worker-gone", "node", name, "err", err)
			}
		}
		c.log.Info("worker deregistered", "node", name)
		c.rerouteFrom(name)
	}
	return ok
}

// Workers snapshots the registered workers and their health.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{Worker: w.Worker, Healthy: w.healthy})
	}
	return out
}

// WorkerStatus is one row of the GET /v1/workers listing.
type WorkerStatus struct {
	Worker
	Healthy bool `json:"healthy"`
}

// routeKey folds a content-hash job ID into the Maglev keyspace using its
// leading 16 hex digits (64 bits of SHA-256 is plenty for load spreading).
func routeKey(id string) uint64 {
	if len(id) > 16 {
		id = id[:16]
	}
	v, err := strconv.ParseUint(id, 16, 64)
	if err != nil {
		// Non-hash IDs can only come from hand-built requests; any stable
		// fold keeps them routable.
		var h uint64 = 14695981039346656037
		for i := 0; i < len(id); i++ {
			h = (h ^ uint64(id[i])) * 1099511628211
		}
		return h
	}
	return v
}

// ownerOf resolves a job ID to its current owner.
func (c *Coordinator) ownerOf(id string) (name, url string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	node, ok := c.table.Lookup(routeKey(id))
	if !ok {
		return "", "", ErrNoWorkers
	}
	w := c.workers[node]
	if w == nil {
		return "", "", ErrNoWorkers
	}
	return node, w.URL, nil
}

// noteFailure records one failed round-trip to a worker; at FailThreshold
// consecutive failures the worker is marked dead, the table reconverges,
// and its jobs are replayed elsewhere.
func (c *Coordinator) noteFailure(node string) {
	c.proxyErrors.Inc()
	c.mu.Lock()
	w := c.workers[node]
	dead := false
	if w != nil && w.healthy {
		w.fails++
		if w.fails >= c.opts.FailThreshold {
			w.healthy = false
			dead = true
			c.rebuildLocked()
		}
	}
	c.mu.Unlock()
	if dead {
		c.log.Warn("worker marked dead", "node", node)
		c.rerouteFrom(node)
	}
}

// noteSuccess clears a worker's consecutive-failure count and, if it was
// dead, brings it back and reconverges the table.
func (c *Coordinator) noteSuccess(node string) {
	c.mu.Lock()
	w := c.workers[node]
	revived := false
	if w != nil {
		w.fails = 0
		if !w.healthy {
			w.healthy = true
			revived = true
			c.rebuildLocked()
		}
	}
	c.mu.Unlock()
	if revived {
		c.log.Info("worker revived", "node", node)
	}
}

// healthLoop probes every worker's /healthz at HealthInterval.
func (c *Coordinator) healthLoop() {
	defer c.healthWG.Done()
	tick := time.NewTicker(c.opts.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.healthStop:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		targets := make(map[string]string, len(c.workers))
		for name, w := range c.workers {
			targets[name] = w.URL
		}
		c.mu.Unlock()
		for name, url := range targets {
			req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
			if err != nil {
				c.noteFailure(name)
				continue
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				c.noteFailure(name)
				continue
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.noteSuccess(name)
			} else {
				// A draining worker answers 503: stop routing new jobs to
				// it and move its unfinished ones.
				c.noteFailure(name)
			}
		}
	}
}

// placeAttempts bounds how many distinct placements a job gets before it is
// reported lost; backoff between attempts is full-jitter exponential.
const (
	placeAttempts  = 5
	placeBaseDelay = 50 * time.Millisecond
)

// place submits a tracked job to its current owner, retrying (and letting
// failure-driven table rebuilds pick new owners) until a worker accepts it.
func (c *Coordinator) place(ctx context.Context, tj *trackedJob) (*http.Response, error) {
	var last error
	for attempt := 0; attempt < placeAttempts; attempt++ {
		if attempt > 0 {
			delay := placeBaseDelay << (attempt - 1)
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("%w: %s: %v (last: %v)", ErrJobLost, tj.id, ctx.Err(), last)
			case <-time.After(time.Duration(rand.Int63n(int64(delay) + 1))):
			}
		}
		node, url, err := c.ownerOf(tj.id)
		if err != nil {
			last = err
			continue
		}
		resp, err := c.submitTo(ctx, url, tj.body)
		if err != nil {
			if ctx.Err() != nil {
				// The caller gave up, not the worker: charging it a failure
				// would let impatient clients mark a healthy node dead.
				return nil, fmt.Errorf("%w: %s: %v", ErrJobLost, tj.id, ctx.Err())
			}
			last = err
			c.noteFailure(node)
			continue
		}
		switch {
		case resp.StatusCode < 300:
			c.mu.Lock()
			tj.node = node
			if !tj.done {
				c.jobs[tj.id] = tj
			}
			c.routedCounter(node).Inc()
			c.mu.Unlock()
			c.noteSuccess(node)
			return resp, nil
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			// Backpressure or drain: same worker may accept after backoff,
			// or the health loop reroutes around it.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			last = fmt.Errorf("%s answered %d", node, resp.StatusCode)
			c.proxyErrors.Inc()
		case resp.StatusCode >= 500:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			last = fmt.Errorf("%s answered %d", node, resp.StatusCode)
			c.noteFailure(node)
		default:
			// 4xx is the client's problem; pass it through untouched.
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrJobLost, tj.id, placeAttempts, last)
}

// submitTo posts one job body to a worker and records the round-trip
// latency in cluster_submit_latency_us.
func (c *Coordinator) submitTo(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.submitLat.Observe(uint64(time.Since(start).Microseconds()))
	}
	return resp, err
}

// rerouteFrom replays every unfinished job owned by a dead worker onto the
// survivors. Zero-lost is the contract the e2e campaign asserts: a job is
// only dropped if no healthy worker accepts it within placeAttempts.
func (c *Coordinator) rerouteFrom(dead string) {
	c.mu.Lock()
	var moving []*trackedJob
	for _, tj := range c.jobs {
		if tj.node == dead {
			moving = append(moving, tj)
		}
	}
	c.mu.Unlock()
	if len(moving) == 0 {
		return
	}
	c.log.Warn("rerouting jobs", "from", dead, "jobs", len(moving))
	for _, tj := range moving {
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProxyTimeout)
		resp, err := c.place(ctx, tj)
		cancel()
		if err != nil {
			// The job stays tracked on the dead node; the next health-state
			// change or client poll retries it.
			c.log.Error("reroute failed", "job_id", tj.id, "err", err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBody))
		resp.Body.Close()
		c.reroutes.Inc()
		c.log.Info("job rerouted", "job_id", tj.id, "from", dead, "to", tj.node)
	}
}
