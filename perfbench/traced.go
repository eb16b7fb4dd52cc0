package main

import (
	"fmt"
	"time"

	cpelide "repro"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/gpu"
	"repro/internal/hmg"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// accessSample is the 1-in-N rate at which Access calls are timed from
// start to end. Every call's end is stamped, which is what kernel walk
// spans and boundary gaps need; a start stamp on every call as well would
// double the tracing cost on the hottest path.
const accessSample = 64

// span is one timed interval of a traced job, in nanoseconds since the
// tracer's epoch. parent is the index of the enclosing span, -1 for a job.
type span struct {
	name   string
	tid    int
	parent int
	interval
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name string, tid, parent int, start, end int64) int {
	t.spans = append(t.spans, span{name: name, tid: tid, parent: parent, interval: interval{start, end}})
	return len(t.spans) - 1
}

// layerTimes aggregates the simulator-layer host timings of traced jobs.
type layerTimes struct {
	machineNew []float64            // ms per job
	access     map[string][]float64 // ns per sampled Access, by protocol
	prelaunch  map[string][]float64 // µs per PreLaunch, by protocol
	planExec   []float64            // µs, PreLaunch return to first Access
	gap        []float64            // µs, last Access to next PreLaunch
	gen        []float64            // ns, previous Access end to a sampled Access start
}

func newLayerTimes() *layerTimes {
	return &layerTimes{
		access:    map[string][]float64{},
		prelaunch: map[string][]float64{},
	}
}

// timedProtocol times every call into the coherence layer for one job.
type timedProtocol struct {
	coherence.Protocol
	t     *tracer
	lt    *layerTimes
	name  string
	tid   int
	job   int // span index of the job
	calls uint64

	// Per-kernel state: walkStart is zero until the kernel's first Access;
	// lastEnd is the end of the last call into the protocol.
	prelaunchEnd, walkStart, lastEnd int64
	lastChiplet                      int
	afterAccess                      bool
}

func (p *timedProtocol) closeWalk() {
	if p.walkStart != 0 {
		p.t.add("walk", p.tid, p.job, p.walkStart, p.lastEnd)
		p.walkStart = 0
	}
}

func (p *timedProtocol) PreLaunch(l *coherence.Launch) coherence.SyncPlan {
	start := p.t.now()
	p.closeWalk()
	if p.lastEnd != 0 {
		p.t.add("boundary", p.tid, p.job, p.lastEnd, start)
		p.lt.gap = append(p.lt.gap, float64(start-p.lastEnd)/1e3)
	}
	plan := p.Protocol.PreLaunch(l)
	end := p.t.now()
	p.t.add("PreLaunch", p.tid, p.job, start, end)
	p.lt.prelaunch[p.name] = append(p.lt.prelaunch[p.name], float64(end-start)/1e3)
	p.prelaunchEnd, p.lastEnd, p.afterAccess = end, end, false
	return plan
}

func (p *timedProtocol) Access(chiplet, cu int, line mem.Addr, write, atomic bool) coherence.AccessResult {
	if p.walkStart == 0 {
		s := p.t.now()
		p.walkStart = s
		p.t.add("plan_exec", p.tid, p.job, p.prelaunchEnd, s)
		p.lt.planExec = append(p.lt.planExec, float64(s-p.prelaunchEnd)/1e3)
	}
	p.calls++
	if p.calls%accessSample != 0 {
		r := p.Protocol.Access(chiplet, cu, line, write, atomic)
		p.lastEnd, p.lastChiplet, p.afterAccess = p.t.now(), chiplet, true
		return r
	}
	s := p.t.now()
	// A change of chiplet means the executor finished a partition in
	// between, which is not generator time.
	if p.afterAccess && chiplet == p.lastChiplet {
		p.lt.gen = append(p.lt.gen, float64(s-p.lastEnd))
	}
	r := p.Protocol.Access(chiplet, cu, line, write, atomic)
	e := p.t.now()
	p.lt.access[p.name] = append(p.lt.access[p.name], float64(e-s))
	p.lastEnd, p.lastChiplet, p.afterAccess = e, chiplet, true
	return r
}

func (p *timedProtocol) Finalize() coherence.SyncPlan {
	start := p.t.now()
	p.closeWalk()
	plan := p.Protocol.Finalize()
	p.t.add("Finalize", p.tid, p.job, start, p.t.now())
	return plan
}

// tracedRun simulates sim from the same exported constructors cpelide.Run
// uses, with a timing decorator between the executor and the protocol. It
// returns the report fields the untraced run must match.
func tracedRun(t *tracer, lt *layerTimes, tid int, sim simJob) (*cpelide.Report, error) {
	cfg := cpelide.DefaultConfig(chiplets)
	job := t.add(sim.key(), tid, -1, t.now(), 0)
	s := t.now()
	w, err := workloads.Build(sim.app, cpelide.NewAllocator(cfg.PageSize), workloads.Params{Scale: sim.scale})
	if err != nil {
		return nil, err
	}
	t.add("workloads.Build", tid, job, s, t.now())

	sheet := stats.New()
	s = t.now()
	m, err := machine.New(cfg, mem.Range{Lo: cpelide.HeapBase, Hi: cpelide.HeapBase}.Union(w.Bounds()), sheet)
	if err != nil {
		return nil, err
	}
	e := t.now()
	t.add("machine.New", tid, job, s, e)
	lt.machineNew = append(lt.machineNew, float64(e-s)/1e6)

	var proto coherence.Protocol
	switch sim.proto {
	case cpelide.ProtocolCPElide:
		proto, err = core.NewWithOptions(m, core.Options{})
	case cpelide.ProtocolHMG:
		proto, err = hmg.New(m, hmg.Options{})
	default:
		proto = coherence.NewBaseline(m)
	}
	if err != nil {
		return nil, err
	}
	tp := &timedProtocol{Protocol: proto, t: t, lt: lt, name: sim.proto.String(), tid: tid, job: job}
	runner, err := cp.NewRunner(gpu.New(m, tp, w.Seed), []cp.StreamSpec{{Workload: w}}, cp.RunnerConfig{RangeInfo: true})
	if err != nil {
		return nil, err
	}
	cycles, err := runner.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sim.key(), err)
	}
	t.spans[job].end = t.now()

	rep := &cpelide.Report{
		Cycles:     cycles,
		Sheet:      sheet,
		StaleReads: m.Mem.StaleReads(),
		Kernels:    sheet.Get(stats.KernelsLaunched),
		ImageHash:  m.Mem.ImageHash(),
	}
	for _, rec := range runner.Records {
		rep.Accesses += rec.Result.Accesses
	}
	return rep, nil
}

// sameReport reports whether the traced run reproduced the untraced one:
// cycles, accesses, kernels, stale reads, image hash and every counter.
func sameReport(traced, untraced *cpelide.Report) error {
	if traced.Cycles != untraced.Cycles || traced.Accesses != untraced.Accesses ||
		traced.Kernels != untraced.Kernels || traced.StaleReads != untraced.StaleReads ||
		traced.ImageHash != untraced.ImageHash {
		return fmt.Errorf("traced run: cycles %d accesses %d kernels %d stale %d hash %x; untraced: %d %d %d %d %x",
			traced.Cycles, traced.Accesses, traced.Kernels, traced.StaleReads, traced.ImageHash,
			untraced.Cycles, untraced.Accesses, untraced.Kernels, untraced.StaleReads, untraced.ImageHash)
	}
	if !traced.Sheet.Equal(untraced.Sheet) {
		return fmt.Errorf("traced run: counter sheet differs:\n%s\nuntraced:\n%s", traced.Sheet, untraced.Sheet)
	}
	return nil
}
