package cpelide

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/cp"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// buildBench constructs one of the paper's benchmarks at reduced scale.
func buildBench(t *testing.T, name string, scale float64) *Workload {
	t.Helper()
	alloc := NewAllocator(4096)
	w, err := workloads.Build(name, alloc, workloads.Params{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAllBenchmarksAllProtocolsCoherent is the central correctness gate:
// every Table II benchmark under every protocol and several machine shapes
// must complete with zero stale reads — i.e. no protocol ever elides a
// synchronization correctness required.
func TestAllBenchmarksAllProtocolsCoherent(t *testing.T) {
	scale := 0.1
	chiplets := []int{4}
	if !testing.Short() {
		chiplets = []int{2, 4, 7}
	}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, n := range chiplets {
				cfg := DefaultConfig(n)
				var l1 []*Report
				for _, p := range allProtocols {
					w := buildBench(t, name, scale)
					rep, err := Run(cfg, w, Options{Protocol: p})
					if err != nil {
						t.Fatalf("%d chiplets / %v: %v", n, p, err)
					}
					if rep.StaleReads != 0 {
						t.Errorf("%d chiplets / %v: %d stale reads",
							n, p, rep.StaleReads)
					}
					if rep.Cycles == 0 || rep.Accesses == 0 {
						t.Errorf("%d chiplets / %v: empty run", n, p)
					}
					if p == ProtocolBaseline || p == ProtocolCPElide || p == ProtocolHMG {
						l1 = append(l1, rep)
					}
				}
				checkL1Elision(t, buildBench(t, name, scale), cfg, l1)
			}
		})
	}
}

// l1Counters are the counters of the per-CU L1 level.
var l1Counters = []stats.Counter{stats.L1Accesses, stats.L1Hits, stats.L1Misses, stats.FlitsL1L2}

// checkL1Elision asserts what eliding the L1 relies on: the L1 counters
// of w's Baseline, CPElide and HMG runs (reps) are equal, since no protocol
// changes what the L1 sees; and a run with L1 hits has a partition that
// kernels.NoL1Reuse refuses, since accepted partitions cannot hit.
func checkL1Elision(t *testing.T, w *Workload, cfg Config, reps []*Report) {
	t.Helper()
	for _, rep := range reps[1:] {
		for _, c := range l1Counters {
			if got, want := rep.Sheet.Get(c), reps[0].Sheet.Get(c); got != want {
				t.Errorf("%d chiplets: %s = %d under %s, %d under %s",
					cfg.NumChiplets, c, got, rep.Protocol, want, reps[0].Protocol)
			}
		}
	}
	if reps[0].Sheet.Get(stats.L1Hits) == 0 {
		return
	}
	for _, k := range w.Sequence {
		for part := 0; part < cfg.NumChiplets; part++ {
			if !kernels.NoL1Reuse(k, part, cfg.NumChiplets, cfg.CUsPerChiplet, cfg.LineSize, kernels.RoundRobinCU) {
				return
			}
		}
	}
	t.Errorf("%d chiplets: %d L1 hits, yet every partition elides the L1",
		cfg.NumChiplets, reps[0].Sheet.Get(stats.L1Hits))
}

// TestCPElideVariantsCoherent exercises the ablation configurations through
// full benchmarks: range-based operations, mode-only annotations, and a
// tiny Chiplet Coherence Table that forces constant eviction.
func TestCPElideVariantsCoherent(t *testing.T) {
	variants := []Options{
		{Protocol: ProtocolCPElide, CPElideRangeOps: true},
		{Protocol: ProtocolCPElide, NoRangeInfo: true},
		{Protocol: ProtocolCPElide, CPElideTableEntries: 4},
		{Protocol: ProtocolCPElide, NoRangeInfo: true, CPElideTableEntries: 4},
		{Protocol: ProtocolCPElide, SyncLatencySets: 4},
		{Protocol: ProtocolHMG, HMGDirLinesPerEntry: 1},
		{Protocol: ProtocolHMG, HMGDirEntries: 256},
	}
	names := workloads.Names()
	if testing.Short() {
		names = []string{"babelstream", "hotspot3D", "sssp", "btree"}
	}
	for _, name := range names {
		for i, opt := range variants {
			w := buildBench(t, name, 0.1)
			rep, err := Run(DefaultConfig(4), w, opt)
			if err != nil {
				t.Fatalf("%s variant %d: %v", name, i, err)
			}
			if rep.StaleReads != 0 {
				t.Errorf("%s variant %d: %d stale reads", name, i, rep.StaleReads)
			}
		}
	}
}

// TestTinyTableStillCorrectButSlower: a 4-entry table forces evictions with
// conservative synchronization; correctness must hold and elision decrease.
func TestTinyTableStillCorrectButSlower(t *testing.T) {
	w := buildBench(t, "babelstream", 0.25)
	full, err := Run(DefaultConfig(4), w, Options{Protocol: ProtocolCPElide})
	if err != nil {
		t.Fatal(err)
	}
	w2 := buildBench(t, "babelstream", 0.25)
	tiny, err := Run(DefaultConfig(4), w2, Options{Protocol: ProtocolCPElide, CPElideTableEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.StaleReads != 0 {
		t.Fatalf("tiny table incoherent: %d stale reads", tiny.StaleReads)
	}
	fullOps := full.Sheet.Get(stats.ReleasesIssued) + full.Sheet.Get(stats.AcquiresIssued)
	tinyOps := tiny.Sheet.Get(stats.ReleasesIssued) + tiny.Sheet.Get(stats.AcquiresIssued)
	if tinyOps <= fullOps {
		t.Errorf("tiny table issued %d ops, full table %d — eviction sync missing",
			tinyOps, fullOps)
	}
}

// TestBrokenProtocolIsCaught: a protocol that never synchronizes must trip
// the staleness checker on a producer-consumer workload — proof that the
// checker has teeth.
func TestBrokenProtocolIsCaught(t *testing.T) {
	w := buildBench(t, "hotspot3D", 0.1)
	cfg := DefaultConfig(4)
	sheet := stats.New()
	m := must(machine.New(cfg, w.Bounds(), sheet))
	x := gpu.New(m, &elideEverything{coherence.NewBaseline(m)}, w.Seed)
	runner, err := cp.NewRunner(x, []StreamSpec{{Workload: w}}, cp.RunnerConfig{RangeInfo: true})
	if err != nil {
		t.Fatal(err)
	}
	runner.Run()
	if m.Mem.StaleReads() == 0 {
		t.Fatal("elide-everything protocol produced no stale reads; checker is blind")
	}
}

// elideEverything is deliberately broken: it never flushes or invalidates.
type elideEverything struct{ *coherence.Baseline }

func (p *elideEverything) PreLaunch(*coherence.Launch) coherence.SyncPlan {
	return coherence.SyncPlan{}
}
func (p *elideEverything) Finalize() coherence.SyncPlan { return coherence.SyncPlan{} }

// TestMultiStreamDisjointCoherent runs two concurrent streams.
func TestMultiStreamDisjointCoherent(t *testing.T) {
	alloc := NewAllocator(4096)
	w0, err := workloads.Build("square", alloc, workloads.Params{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	w1, err := workloads.Build("hotspot3D", alloc, workloads.Params{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allProtocols {
		rep, err := RunStreams(DefaultConfig(4), []StreamSpec{
			{Workload: w0, Chiplets: []int{0, 1}},
			{Workload: w1, Chiplets: []int{2, 3}},
		}, Options{Protocol: p})
		if err != nil {
			t.Fatal(err)
		}
		if rep.StaleReads != 0 {
			t.Errorf("%v: %d stale reads", p, rep.StaleReads)
		}
	}
}

// TestChipletScalingTrend: CPElide's advantage over HMG grows (or at least
// does not invert) from 4 to 7 chiplets on a streaming workload, the
// Section V-C scaling claim.
func TestChipletScalingTrend(t *testing.T) {
	ratio := func(n int) float64 {
		w := buildBench(t, "square", 0.25)
		e, err := Run(DefaultConfig(n), w, Options{Protocol: ProtocolCPElide})
		if err != nil {
			t.Fatal(err)
		}
		w2 := buildBench(t, "square", 0.25)
		h, err := Run(DefaultConfig(n), w2, Options{Protocol: ProtocolHMG})
		if err != nil {
			t.Fatal(err)
		}
		return float64(h.Cycles) / float64(e.Cycles)
	}
	if r4, r7 := ratio(4), ratio(7); r7 < r4*0.9 {
		t.Errorf("CPElide-over-HMG shrank sharply with chiplets: %.3f -> %.3f", r4, r7)
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
