package gpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

func smallCfg() config.GPU {
	g := config.Default(4)
	g.CUsPerChiplet = 4
	g.L1SizeBytes = 1 << 10
	g.L2SizeBytes = 64 << 10
	g.L3SizeBytes = 128 << 10
	return g
}

func setup(t *testing.T) (*Executor, *machine.Machine) {
	t.Helper()
	m := must(machine.New(smallCfg(), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	return New(m, coherence.NewBaseline(m), 7), m
}

func mkLaunch(computePerWG uint32, elems int) *coherence.Launch {
	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	a := alloc.Alloc("a", elems, 4)
	b := alloc.Alloc("b", elems, 4)
	k := &kernels.Kernel{
		Name: "k", WGs: 16, ComputePerWG: computePerWG,
		LDSBytesPerWG: 1024,
		Args: []kernels.Arg{
			{DS: a, Mode: kernels.Read, Pattern: kernels.Linear},
			{DS: b, Mode: kernels.ReadWrite, Pattern: kernels.Linear},
		},
	}
	l := &coherence.Launch{Kernel: k, Chiplets: []int{0, 1, 2, 3}}
	l.ArgRanges = make([][]mem.RangeSet, len(k.Args))
	for ai := range k.Args {
		l.ArgRanges[ai] = make([]mem.RangeSet, 4)
		for slot := 0; slot < 4; slot++ {
			l.ArgRanges[ai][slot] = kernels.ArgRanges(k, ai, slot, 4, 64)
		}
	}
	return l
}

func TestExecutePlanOverlapsWithCPPipeline(t *testing.T) {
	// Shrink the CP pipeline window so the test cache's modest dirty drain
	// can outlast it.
	g := smallCfg()
	g.CPLatencyUS = 0.05
	m := must(machine.New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	x := New(m, coherence.NewBaseline(m), 7)
	// Empty plan costs nothing.
	if cy := x.ExecutePlan(coherence.SyncPlan{}); cy != 0 {
		t.Errorf("empty plan cost %d", cy)
	}
	// With the full 2us pipeline window, a cheap flush hides entirely.
	xFull, _ := setup(t)
	plan := coherence.SyncPlan{Ops: []coherence.SyncOp{{Chiplet: 0, Kind: coherence.Release}}}
	if cy := xFull.ExecutePlan(plan); cy != 0 {
		t.Errorf("cheap flush exposed %d cycles", cy)
	}
	// A dirty drain that outlasts the (shrunken) pipeline is exposed.
	for i := 0; i < 1024; i++ {
		line := mem.Addr(0x1000_0000 + i*64)
		m.Home(line, 0)
		m.L2[0].Fill(line, m.Mem.Store(line), true)
	}
	cy := x.ExecutePlan(plan)
	if cy == 0 {
		t.Error("large drain fully hidden")
	}
}

func TestLatencyFactorScalesExposure(t *testing.T) {
	g := smallCfg()
	g.CPLatencyUS = 0.05
	m := must(machine.New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	x := New(m, coherence.NewBaseline(m), 7)
	fill := func() {
		for i := 0; i < 1024; i++ {
			line := mem.Addr(0x1000_0000 + i*64)
			m.Home(line, 0)
			m.L2[0].Fill(line, m.Mem.Store(line), true)
		}
	}
	fill()
	base := x.ExecutePlan(coherence.SyncPlan{
		Ops: []coherence.SyncOp{{Chiplet: 0, Kind: coherence.Release}},
	})
	fill()
	scaled := x.ExecutePlan(coherence.SyncPlan{
		Ops:           []coherence.SyncOp{{Chiplet: 0, Kind: coherence.Release}},
		LatencyFactor: 4,
	})
	if scaled <= base {
		t.Errorf("latency factor had no effect: %d vs %d", scaled, base)
	}
}

// planLog records the plans an Observer sees.
type planLog struct{ launch, final []coherence.SyncPlan }

func (o *planLog) OnLaunch(_ *coherence.Launch, p coherence.SyncPlan) { o.launch = append(o.launch, p) }
func (o *planLog) OnFinalize(p coherence.SyncPlan)                    { o.final = append(o.final, p) }

// TestPlanAdjustments checks where the executor's plan adjustments land:
// latency sets and the driver round trip on launch plans only, the op
// mutation on launch and finalize plans, all before the observer.
func TestPlanAdjustments(t *testing.T) {
	x, _ := setup(t)
	obs := &planLog{}
	x.Obs, x.LatencySets, x.HostRoundTrip = obs, 4, 1000
	x.Mutate = func(ops []coherence.SyncOp) []coherence.SyncOp {
		out := ops[:0]
		for _, op := range ops {
			if op.Kind == coherence.Release {
				out = append(out, op)
			}
		}
		return out
	}
	res := x.RunKernel(mkLaunch(10, 4096), false)
	x.Finalize()
	if len(obs.launch) != 1 || len(obs.final) != 1 {
		t.Fatalf("observed %d launch and %d finalize plans", len(obs.launch), len(obs.final))
	}
	lp, fp := obs.launch[0], obs.final[0]
	if lp.LatencyFactor != 4 || lp.HostRoundTripCycles != 1000 {
		t.Errorf("launch plan factor %d, round trip %d; want 4, 1000", lp.LatencyFactor, lp.HostRoundTripCycles)
	}
	if fp.LatencyFactor != 0 || fp.HostRoundTripCycles != 0 {
		t.Errorf("finalize plan factor %d, round trip %d; want 0, 0", fp.LatencyFactor, fp.HostRoundTripCycles)
	}
	if len(lp.Ops) != 4 || len(fp.Ops) != 4 {
		t.Errorf("mutated plans hold %d and %d ops, want the 4 releases each", len(lp.Ops), len(fp.Ops))
	}
	if res.SyncCycles < 1000 {
		t.Errorf("sync cycles %d hide the driver round trip", res.SyncCycles)
	}
}

func TestComputeBoundKernelTime(t *testing.T) {
	x, _ := setup(t)
	l := mkLaunch(100000, 4096) // tiny memory, huge compute
	res := x.RunKernel(l, false)
	// 16 WGs over 4 chiplets = 4 WGs/chiplet over 4 CUs = 1 WG/CU.
	if res.ComputeCycles != 100000 {
		t.Errorf("compute cycles = %d", res.ComputeCycles)
	}
	if res.Cycles < 100000 {
		t.Errorf("kernel faster than its compute: %d", res.Cycles)
	}
	if res.Accesses == 0 {
		t.Error("no accesses simulated")
	}
}

func TestMemoryBoundKernelTime(t *testing.T) {
	x, _ := setup(t)
	l := mkLaunch(1, 512*1024) // 2 MB arrays, no compute
	res := x.RunKernel(l, false)
	if res.MemoryCycles <= res.ComputeCycles {
		t.Error("memory-bound kernel not memory-dominated")
	}
}

func TestExposeCPOnlyWhenRequested(t *testing.T) {
	x, _ := setup(t)
	l := mkLaunch(1000, 4096)
	hidden := x.RunKernel(l, false)
	if hidden.CPCycles != 0 {
		t.Error("CP cycles exposed despite enqueue-ahead")
	}
	exposed := x.RunKernel(l, true)
	if exposed.CPCycles == 0 {
		t.Error("first-kernel CP cycles not exposed")
	}
}

func TestL1InvalidatedEveryLaunch(t *testing.T) {
	x, m := setup(t)
	// 4-line slices with 5-line halos: the kernel stays on the L1 path
	// (kernels.NoL1Reuse refuses halos wider than a slice), yet each CU
	// runs one WG and reads its 14 lines once, all of which its L1 keeps.
	l := mkLaunch(10, 1024)
	l.Kernel.Args[0].Pattern, l.Kernel.Args[0].HaloLines = kernels.Stencil, 5
	x.RunKernel(l, false)
	// L1s hold lines now; a new launch must start from empty L1s.
	var before int
	for _, c := range m.L1 {
		for _, l1 := range c {
			before += l1.ValidLines()
		}
	}
	if before == 0 {
		t.Fatal("setup: L1s empty after kernel")
	}
	hits0 := m.Sheet.Get(stats.L1Hits)
	x.RunKernel(l, false)
	// First touch of every line in the new kernel must miss L1.
	rereadHits := m.Sheet.Get(stats.L1Hits) - hits0
	if rereadHits != 0 {
		t.Errorf("L1 hits across kernel boundary: %d", rereadHits)
	}
}

func TestFinalizeReportsStaleReads(t *testing.T) {
	x, m := setup(t)
	l := mkLaunch(10, 4096)
	x.RunKernel(l, false)
	x.Finalize()
	if m.Sheet.Get(stats.StaleReads) != m.Mem.StaleReads() {
		t.Error("finalize did not record stale reads")
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
