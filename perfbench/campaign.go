package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	cpelide "repro"
	"repro/internal/farm"
	"repro/internal/server"
)

// jobTimeout bounds one job's submit-to-result wait; a job past it fails.
const jobTimeout = 60 * time.Second

// stack is one in-process serving stack: farm, server and a loopback
// listener, with the HTTP client that drives it.
type stack struct {
	farm   *farm.Farm
	srv    *server.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

func startStack() (*stack, error) {
	f := farm.New(farm.Options{Workers: clients})
	s := server.New(f, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain()
		f.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st := &stack{
		farm:   f,
		srv:    s,
		http:   &http.Server{Handler: s.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}},
	}
	go func() { st.served <- st.http.Serve(ln) }()
	return st, nil
}

// close stops the listener, waits for the serving goroutine, drains the
// server's dispatchers and stops the farm's workers.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.http.Shutdown(ctx) // a timed-out shutdown still closes the listener
	<-st.served
	st.client.CloseIdleConnections()
	st.srv.Drain()
	st.farm.Close()
}

func (st *stack) do(ctx context.Context, method, path string, reqBody []byte) (int, []byte, error) {
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, st.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (st *stack) stats(ctx context.Context) (farm.Counters, error) {
	code, b, err := st.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return farm.Counters{}, err
	}
	if code != http.StatusOK {
		return farm.Counters{}, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	var s server.StatsResponse
	if err := json.Unmarshal(b, &s); err != nil {
		return farm.Counters{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return s.Farm, nil
}

// coldResult is the client's view of one first submission.
type coldResult struct {
	err       error
	report    []byte
	start     time.Time
	latency   time.Duration // submit to received result
	submit    time.Duration // the POST
	result    time.Duration // the GET that returned the report
	queueWait time.Duration // 202 to the first poll that saw "running"
	run       time.Duration // first "running" poll to the "done" poll
	sawRun    bool
	polls     int
}

// cold submits a fresh body and polls its result every poll. The server's
// Retry-After: 1 hint on a 202 is ignored on purpose: honouring it would
// round every cold latency up to whole seconds.
func (st *stack) cold(ctx context.Context, b []byte, poll time.Duration) (r coldResult) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	r.start = time.Now()
	code, resp, err := st.do(ctx, http.MethodPost, "/v1/jobs", b)
	r.submit = time.Since(r.start)
	if err != nil {
		r.err = err
		return r
	}
	if code != http.StatusAccepted {
		r.err = fmt.Errorf("POST /v1/jobs: status %d, want 202: %s", code, resp)
		return r
	}
	var sr server.StatusResponse
	if err := json.Unmarshal(resp, &sr); err != nil {
		r.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return r
	}
	accepted := time.Now()
	var running time.Time
	for {
		t := time.Now()
		code, resp, err := st.do(ctx, http.MethodGet, "/v1/jobs/"+sr.ID+"/result", nil)
		r.polls++
		if err != nil {
			r.err = err
			return r
		}
		switch code {
		case http.StatusOK:
			r.latency = time.Since(r.start)
			r.result = time.Since(t)
			r.report = resp
			if r.sawRun {
				r.run = t.Sub(running)
			}
			return r
		case http.StatusAccepted:
			var s server.StatusResponse
			if err := json.Unmarshal(resp, &s); err != nil {
				r.err = fmt.Errorf("poll: %w", err)
				return r
			}
			if s.Status == "running" && !r.sawRun {
				r.sawRun, running = true, t
				r.queueWait = t.Sub(accepted)
			}
		default:
			r.err = fmt.Errorf("poll %s: status %d: %s", sr.ID, code, resp)
			return r
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			r.err = fmt.Errorf("job %s: %w", sr.ID, ctx.Err())
			return r
		}
	}
}

// repeatResult is the client's view of one resubmission.
type repeatResult struct {
	err     error
	report  []byte
	latency time.Duration
	submit  time.Duration
	result  time.Duration
}

// repeat resubmits a completed body and fetches its report.
func (st *stack) repeat(ctx context.Context, b []byte) (r repeatResult) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	start := time.Now()
	code, resp, err := st.do(ctx, http.MethodPost, "/v1/jobs", b)
	r.submit = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	var sr server.StatusResponse
	if code != http.StatusOK || json.Unmarshal(resp, &sr) != nil || sr.Status != "done" {
		r.err = fmt.Errorf("resubmit: status %d, want 200 done: %s", code, resp)
		return r
	}
	t := time.Now()
	code, resp, err = st.do(ctx, http.MethodGet, "/v1/jobs/"+sr.ID+"/result", nil)
	r.result = time.Since(t)
	r.latency = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	if code != http.StatusOK {
		r.err = fmt.Errorf("result of %s: status %d", sr.ID, code)
		return r
	}
	r.report = resp
	return r
}

// closedLoop runs n operations on a closed loop of clients: each client
// takes the next operation only when its previous one has completed.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// campaign is one pass of a workload: rounds of cold bodies, each
// followed by resubmissions of bodies completed so far, against a fresh
// stack.
type campaign struct {
	cold    []coldResult
	repeats []repeatResult
	farm    farm.Counters // delta over the campaign
	fails   []error       // one per failed operation
}

func (c *campaign) attempted() int { return len(c.cold) + len(c.repeats) }

// runCampaign drives the bodies and the repeat schedule through st and
// checks every result: a cold report must match its expected digest with
// no stale reads, and a resubmission must return the cold report's bytes.
func runCampaign(ctx context.Context, st *stack, s spec, bodies []body, sched []int, want map[string]digest) (*campaign, error) {
	before, err := st.stats(ctx)
	if err != nil {
		return nil, err
	}
	c := &campaign{cold: make([]coldResult, len(bodies)), repeats: make([]repeatResult, len(sched))}
	for r := range s.rounds {
		lo, hi := split(len(bodies), s.rounds, r)
		closedLoop(hi-lo, func(i int) { c.cold[lo+i] = st.cold(ctx, bodies[lo+i].json, s.poll) })
		for i := lo; i < hi; i++ {
			c.checkCold(want, i, bodies[i].sim)
		}
		lo, hi = split(len(sched), s.rounds, r)
		closedLoop(hi-lo, func(i int) { c.repeat(ctx, st, lo+i, sched[lo+i], bodies[sched[lo+i]]) })
	}
	after, err := st.stats(ctx)
	if err != nil {
		return nil, err
	}
	c.farm = farm.Counters{
		Runs:       after.Runs - before.Runs,
		CacheHits:  after.CacheHits - before.CacheHits,
		DedupWaits: after.DedupWaits - before.DedupWaits,
	}
	for _, r := range c.repeats {
		if r.err != nil {
			c.fails = append(c.fails, r.err)
		}
	}
	if int(c.farm.Runs) != len(bodies) {
		c.fails = append(c.fails, fmt.Errorf("farm ran %d simulations for %d distinct bodies", c.farm.Runs, len(bodies)))
	}
	return c, nil
}

// checkCold decodes cold result i and checks it against its digest.
func (c *campaign) checkCold(want map[string]digest, i int, sim simJob) {
	r := &c.cold[i]
	if r.err == nil {
		var rep cpelide.Report
		if err := json.Unmarshal(r.report, &rep); err != nil {
			r.err = fmt.Errorf("decode report: %w", err)
		} else {
			r.err = checkReport(want, sim, &rep)
		}
	}
	if r.err != nil {
		c.fails = append(c.fails, r.err)
	}
}

// repeat resubmits body b of cold result target as repeat i.
func (c *campaign) repeat(ctx context.Context, st *stack, i, target int, b body) {
	cold := &c.cold[target]
	if cold.err != nil {
		c.repeats[i].err = errors.New("resubmission of a failed body")
		return
	}
	c.repeats[i] = st.repeat(ctx, b.json)
	if c.repeats[i].err == nil && !bytes.Equal(c.repeats[i].report, cold.report) {
		c.repeats[i].err = fmt.Errorf("resubmitted %s: report differs from the first", b.sim.key())
	}
}
