// Command perfbench is the repository's end-to-end benchmark. It serves a
// workload's job mix from an in-process cpelide server to a closed loop of
// clients, checks every result against the expected digests in
// digests.json, and prints host-time metrics; with -trace 1 it also
// re-runs each distinct simulation under a timing decorator and prints
// per-layer metrics. The last line of standard output is one JSON object.
//
//	go run . -workload stream -seed 1 -seconds 30 -trace 0
//
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	cpelide "repro"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// extraSetups is how many set-ups each pass times beyond its own, so the
// set-up median rests on samples from the whole run.
const extraSetups = 4

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runtimeSample reads the process counters a span is measured with.
type runtimeSample struct {
	at                    time.Time
	cpu                   time.Duration // user+sys
	alloc, gcs            uint64
	gcCPUSec, totalCPUSec float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	return runtimeSample{
		at:          time.Now(),
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:       ms[0].Value.Uint64(),
		gcs:         ms[1].Value.Uint64(),
		gcCPUSec:    ms[2].Value.Float64(),
		totalCPUSec: ms[3].Value.Float64(),
	}
}

// residentMiB reads the process's current resident set from
// /proc/self/statm.
func residentMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return float64(resident*uint64(os.Getpagesize())) / (1 << 20), nil
}

// peakRSS samples the resident set every 10 ms until stop is closed and
// returns the largest sample. The process-lifetime peak from getrusage
// would be the maximum over every pass, the noisiest statistic of all.
func peakRSS(stop <-chan struct{}) (peak float64, err error) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		v, err := residentMiB()
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
		select {
		case <-tick.C:
		case <-stop:
			return peak, nil
		}
	}
}

// pass is one campaign with its set-up, plus the traced re-runs in a
// traced pass.
type pass struct {
	setups    []float64 // seconds: the extra set-ups, then the pass's own
	peakRSS   float64   // MiB, during the campaign
	c         *campaign
	span      [2]runtimeSample // around the campaign
	untraced  time.Duration    // direct runs of the distinct simulations
	traced    time.Duration    // the same runs under the decorator
	reports   []*cpelide.Report
	traceFail []error
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "stream, irregular or serve")
	seed := fs.Uint64("seed", 1, "input seed: job order, job mix and repeat schedule")
	seconds := fs.Int("seconds", 30, "measurement time; whole campaigns run until it is spent")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the span trace is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	traced := *traceFlag == 1
	budget := time.Duration(*seconds) * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	t := &tracer{epoch: time.Now()}
	lt := newLayerTimes()
	var passes []*pass
	keep := 0 // spans of the first pass
	start := time.Now()
	for {
		p0 := time.Now()
		p, err := runPass(ctx, s, *seed, traced, t, lt)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		passes = append(passes, p)
		// One pass's spans are enough to open in Perfetto; later passes
		// only add samples to the layer timings.
		if len(passes) == 1 {
			keep = len(t.spans)
		}
		t.spans = t.spans[:keep]
		if time.Since(start)+time.Since(p0) > budget {
			break
		}
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d loop=closed clients=%d farm_workers=%d passes=%d GOMAXPROCS=%d\n",
		s.name, *seed, *seconds, *traceFlag, clients, clients, len(passes), runtime.GOMAXPROCS(0))
	res := result{Metrics: map[string]metric{}}
	for _, p := range passes {
		res.Attempted += p.c.attempted() + len(p.reports)
		res.Failed += len(p.c.fails) + len(p.traceFail)
		for _, errs := range [][]error{p.c.fails, p.traceFail} {
			for _, err := range errs {
				fmt.Fprintln(stderr, "perfbench: FAIL:", err)
			}
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "error_rate %d/%d = %.4g\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	put := func(name, unit string, x val) {
		if x.v != x.v { // NaN: no samples, which only a failed run produces
			x.v = 0
		}
		res.Metrics[name] = metric{Value: x.v, Unit: unit}
		fmt.Fprintf(stdout, "%-34s %-6s %-12.6g %s\n", name, unit, x.v, x.detail)
	}
	if traced {
		layerMetrics(put, passes, lt)
		path := filepath.Join(*out, fmt.Sprintf("perfbench-%s-seed%d.trace.json", s.name, *seed))
		if err := writeChromeTrace(path, t); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans:", path)
		printSelfTimes(stdout, t)
	} else {
		endToEndMetrics(put, passes)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// rig is a pass's prepared inputs and serving stack.
type rig struct {
	st     *stack
	bodies []body
	sched  []int
	want   map[string]digest
}

// setUp is the one-time preparation before a timed campaign: the job
// list, the expected digests, a fresh farm and server, and one warm-up job.
func setUp(ctx context.Context, s spec, seed uint64) (*rig, time.Duration, error) {
	start := time.Now()
	bodies, err := campaignBodies(s, seed)
	if err != nil {
		return nil, 0, err
	}
	want, err := loadDigests()
	if err != nil {
		return nil, 0, err
	}
	st, err := startStack()
	if err != nil {
		return nil, 0, err
	}
	// The warm-up job's scale differs from every workload's, so its body
	// is never one of the campaign's. It is polled finely: a workload's
	// own poll interval would quantise set-up time.
	warm := st.cold(ctx, []byte(`{"workload":"square","protocol":"baseline","scale":0.03125,"chiplets":4}`), time.Millisecond)
	if warm.err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", warm.err)
	}
	r := &rig{st: st, bodies: bodies, sched: repeatSchedule(s, seed, len(bodies)), want: want}
	return r, time.Since(start), nil
}

// runPass sets up a fresh stack, runs one campaign on it and, when traced,
// re-runs the distinct simulations directly and under the decorator.
func runPass(ctx context.Context, s spec, seed uint64, traced bool, t *tracer, lt *layerTimes) (*pass, error) {
	p := &pass{}
	for range extraSetups {
		r, d, err := setUp(ctx, s, seed)
		if err != nil {
			return nil, err
		}
		r.st.close()
		p.setups = append(p.setups, d.Seconds())
	}
	r, setup, err := setUp(ctx, s, seed)
	if err != nil {
		return nil, err
	}
	defer r.st.close()
	p.setups = append(p.setups, setup.Seconds())
	bodies := r.bodies

	stop, sampled := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		p.peakRSS, err = peakRSS(stop)
		sampled <- err
	}()
	p.span[0] = sampleRuntime()
	p.c, err = runCampaign(ctx, r.st, s, bodies, r.sched, r.want)
	p.span[1] = sampleRuntime()
	close(stop)
	if rssErr := <-sampled; err == nil {
		err = rssErr
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		return p, nil
	}
	for i, sim := range distinctSims(bodies) {
		t0 := time.Now()
		w, err := workloads.Build(sim.app, cpelide.NewAllocator(cpelide.DefaultConfig(chiplets).PageSize), workloads.Params{Scale: sim.scale})
		if err != nil {
			return nil, err
		}
		want, err := cpelide.Run(cpelide.DefaultConfig(chiplets), w, cpelide.Options{Protocol: sim.proto})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		got, err := tracedRun(t, lt, i, sim)
		if err != nil {
			return nil, err
		}
		p.traced += time.Since(t1)
		p.untraced += t1.Sub(t0)
		p.reports = append(p.reports, want)
		if err := sameReport(got, want); err != nil {
			p.traceFail = append(p.traceFail, fmt.Errorf("%s: %w", sim.key(), err))
		}
	}
	return p, nil
}

func medianOf(passes []*pass, f func(*pass) float64) dist {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	return newDist(xs)
}

// val is a metric value with the detail printed beside it: its sample
// count and spread, or a fraction's base.
type val struct {
	v      float64
	detail string
}

func medianVal(d dist, prefix string) val { return val{d.median(), prefix + d.describe()} }
func meanVal(xs []float64) val            { d := newDist(xs); return val{d.mean(), "mean; " + d.describe()} }

// ratio is a fraction with its base.
func ratio(num, den uint64) val {
	return val{stats.Ratio(num, den), fmt.Sprintf("%d / %d", num, den)}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies returns one pass's successful cold and repeat latencies in ms.
func (p *pass) latencies() (cold, repeat []float64) {
	for _, r := range p.c.cold {
		if r.err == nil {
			cold = append(cold, ms(r.latency))
		}
	}
	for _, r := range p.c.repeats {
		if r.err == nil {
			repeat = append(repeat, ms(r.latency))
		}
	}
	return cold, repeat
}

// percentileVal is the median over passes of each pass's p-th percentile.
// Stream and irregular run six cold jobs of six different kinds per pass,
// so a percentile pooled over passes would be an extreme order statistic
// of a few samples; the per-pass percentile of a fixed job mix is stable.
func percentileVal(passes []*pass, p float64, repeat bool) val {
	var pooled []float64
	per := medianOf(passes, func(ps *pass) float64 {
		c, r := ps.latencies()
		xs := c
		if repeat {
			xs = r
		}
		pooled = append(pooled, xs...)
		return newDist(xs).pct(p)
	})
	n := len(pooled) / len(passes)
	d := newDist(pooled)
	return val{per.median(), fmt.Sprintf("median over %d campaigns (%.4g..%.4g) of p%g of %d samples (%d beyond); pooled %s; %s",
		per.n(), per.xs[0], per.xs[per.n()-1], p, n, beyond(n, p), d.describeAt(p), d.describe())}
}

func endToEndMetrics(put func(string, string, val), passes []*pass) {
	var setups []float64
	for _, p := range passes {
		setups = append(setups, p.setups...)
	}
	put("wall_s", "s", medianVal(medianOf(passes, func(p *pass) float64 {
		return p.span[1].at.Sub(p.span[0].at).Seconds()
	}), "median over campaigns: "))
	put("cpu_s", "s", medianVal(medianOf(passes, func(p *pass) float64 {
		return (p.span[1].cpu - p.span[0].cpu).Seconds()
	}), "median over campaigns: "))
	put("alloc_mb", "MiB", medianVal(medianOf(passes, func(p *pass) float64 {
		return float64(p.span[1].alloc-p.span[0].alloc) / (1 << 20)
	}), "median over campaigns: "))
	put("peak_rss_mb", "MiB", medianVal(medianOf(passes, func(p *pass) float64 { return p.peakRSS }),
		"median over campaigns of the peak sampled every 10 ms: "))
	put("setup_s", "s", medianVal(newDist(setups), "median over set-ups: "))
	put("cold_p50_ms", "ms", percentileVal(passes, 50, false))
	put("cold_p95_ms", "ms", percentileVal(passes, 95, false))
	put("repeat_p50_ms", "ms", percentileVal(passes, 50, true))
	put("repeat_p95_ms", "ms", percentileVal(passes, 95, true))
}

func layerMetrics(put func(string, string, val), passes []*pass, lt *layerTimes) {
	put("machine.new_ms", "ms", meanVal(lt.machineNew))
	for _, p := range protocols {
		v := meanVal(lt.access[p.String()])
		v.detail = fmt.Sprintf("1 in %d calls timed; %s", accessSample, v.detail)
		put("coherence.access_ns."+protoName(p), "ns", v)
	}
	put("kernels.gen_ns", "ns", meanVal(lt.gen))
	for _, p := range protocols {
		put("coherence.prelaunch_us."+protoName(p), "us", meanVal(lt.prelaunch[p.String()]))
	}
	put("gpu.plan_exec_us", "us", meanVal(lt.planExec))
	put("cp.boundary_gap_us", "us", meanVal(lt.gap))

	put("runtime.gc_cycles", "count", medianVal(medianOf(passes, func(p *pass) float64 {
		return float64(p.span[1].gcs - p.span[0].gcs)
	}), "median per campaign: "))
	var gcCPU, totalCPU float64
	var tr, un time.Duration
	for _, p := range passes {
		gcCPU += p.span[1].gcCPUSec - p.span[0].gcCPUSec
		totalCPU += p.span[1].totalCPUSec - p.span[0].totalCPUSec
		tr, un = tr+p.traced, un+p.untraced
	}
	put("runtime.gc_cpu_fraction", "ratio", val{gcCPU / totalCPU,
		fmt.Sprintf("%.3f / %.3f runtime-estimated cpu-s over campaigns", gcCPU, totalCPU)})
	put("bench.trace_overhead", "ratio", val{tr.Seconds() / un.Seconds(),
		fmt.Sprintf("%.3fs traced / %.3fs untraced", tr.Seconds(), un.Seconds())})

	// Modelled counts come from one pass's untraced reports: they are
	// exact, so further passes would only repeat them.
	sum := stats.New()
	var accesses uint64
	for _, r := range passes[0].reports {
		sum.Merge(r.Sheet)
		accesses += r.Accesses
	}
	g := sum.Get
	count := func(name string, c stats.Counter) { put(name, "count", val{float64(g(c)), c.String()}) }
	put("mem.l1.hit_ratio", "ratio", ratio(g(stats.L1Hits), g(stats.L1Accesses)))
	put("mem.l2.hit_ratio", "ratio", ratio(g(stats.L2Hits), g(stats.L2Accesses)))
	put("mem.l3.hit_ratio", "ratio", ratio(g(stats.L3Hits), g(stats.L3Accesses)))
	count("mem.l2.misses", stats.L2Misses)
	count("mem.l2.invalidates", stats.L2Invalidates)
	count("mem.l2.writebacks", stats.L2Writebacks)
	put("mem.dram.accesses", "count", val{float64(g(stats.DRAMReads) + g(stats.DRAMWrites)), "dram.reads + dram.writes"})
	count("noc.flits.l1l2", stats.FlitsL1L2)
	count("noc.flits.l2l3", stats.FlitsL2L3)
	count("noc.flits.remote", stats.FlitsRemote)
	count("hmg.dir_evictions", stats.DirEvictions)
	count("hmg.dir_invals", stats.DirInvals)
	put("core.acquire_elision_ratio", "ratio", ratio(g(stats.AcquiresElided), g(stats.AcquiresIssued)+g(stats.AcquiresElided)))
	put("core.release_elision_ratio", "ratio", ratio(g(stats.ReleasesElided), g(stats.ReleasesIssued)+g(stats.ReleasesElided)))
	count("gpu.kernels", stats.KernelsLaunched)
	put("gpu.accesses", "count", val{float64(accesses), "Report.Accesses"})

	var submit, result, kb, queue, run, polls []float64
	for _, p := range passes {
		for _, r := range p.c.cold {
			if r.err != nil {
				continue
			}
			submit, result = append(submit, ms(r.submit)), append(result, ms(r.result))
			kb = append(kb, float64(len(r.report))/1024)
			polls = append(polls, float64(r.polls))
			if r.sawRun {
				queue, run = append(queue, ms(r.queueWait)), append(run, ms(r.run))
			}
		}
		for _, r := range p.c.repeats {
			if r.err == nil {
				submit, result = append(submit, ms(r.submit)), append(result, ms(r.result))
				kb = append(kb, float64(len(r.report))/1024)
			}
		}
	}
	put("server.submit_ms", "ms", medianVal(newDist(submit), ""))
	put("server.result_ms", "ms", medianVal(newDist(result), ""))
	put("server.result_kb", "KiB", meanVal(kb))
	put("server.queue_wait_ms", "ms", medianVal(newDist(queue), ""))
	put("farm.run_ms", "ms", medianVal(newDist(run), ""))
	put("server.polls_per_cold_job", "count", meanVal(polls))
	c := passes[0].c
	put("farm.runs", "count", val{float64(c.farm.Runs), "per campaign, from GET /v1/stats"})
	put("farm.dedup_waits", "count", val{float64(c.farm.DedupWaits), "per campaign"})
	put("farm.cache_hits", "count", val{float64(c.farm.CacheHits), "per campaign; resubmissions are answered from the server's job table"})
	put("farm.useful_work_ratio", "ratio", ratio(c.farm.Runs, uint64(len(c.cold))))
}
