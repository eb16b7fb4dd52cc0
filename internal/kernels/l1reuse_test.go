package kernels_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/workloads"
)

var schedules = []kernels.CUSchedule{kernels.RoundRobinCU, kernels.ChunkedCU}

// readChecker finds repeated (CU, line) reads in generated partitions,
// reusing one key buffer, and counts the partitions NoL1Reuse accepts.
type readChecker struct {
	keys     []uint64
	accepted int
}

// repeatedRead describes the first (CU, line) pair that partition part of
// nparts reads twice, or returns "". Only Indirect args depend on the
// instance, and NoL1Reuse refuses Indirect reads, so instance 0 stands for
// every instance of an accepted kernel.
func (rc *readChecker) repeatedRead(k *kernels.Kernel, part, nparts, cus, lineSize int, sched kernels.CUSchedule) string {
	rc.keys = rc.keys[:0]
	kernels.GenerateScheduled(k, 0, 1, part, nparts, cus, lineSize, sched, func(a kernels.Access) {
		if !a.Write {
			rc.keys = append(rc.keys, uint64(a.CU)<<40|uint64(a.Line))
		}
	})
	slices.Sort(rc.keys)
	for i := 1; i < len(rc.keys); i++ {
		if key := rc.keys[i]; key == rc.keys[i-1] {
			return fmt.Sprintf("CU %d reads line %#x twice", key>>40, key&(1<<40-1))
		}
	}
	return ""
}

// check asserts that every partition of k that NoL1Reuse accepts, under
// either schedule, reads no line twice from one CU.
func (rc *readChecker) check(t *testing.T, what string, k *kernels.Kernel, nparts, cus, lineSize int) {
	t.Helper()
	for _, sched := range schedules {
		for part := 0; part < nparts; part++ {
			if !kernels.NoL1Reuse(k, part, nparts, cus, lineSize, sched) {
				continue
			}
			rc.accepted++
			if dup := rc.repeatedRead(k, part, nparts, cus, lineSize, sched); dup != "" {
				t.Errorf("%s: kernel %s partition %d/%d sched %d accepted, but %s", what, k.Name, part, nparts, sched, dup)
			}
		}
	}
}

// TestNoL1ReuseSound: for every registered workload and for the generated
// DAGs the dispatch digests run, every accepted partition is free of
// repeated (CU, line) reads, so eliding its L1 changes no hit.
func TestNoL1ReuseSound(t *testing.T) {
	var rc readChecker
	for _, name := range workloads.Names() {
		for _, scale := range []float64{0.1, 1} {
			for _, n := range []int{1, 2, 4, 8} {
				cfg := config.Default(n)
				w, err := workloads.Build(name, kernels.NewAllocator(0x1000_0000, cfg.PageSize), workloads.Params{Scale: scale})
				if err != nil {
					t.Fatal(err)
				}
				seen := map[*kernels.Kernel]bool{}
				for _, k := range w.Sequence {
					if !seen[k] {
						seen[k] = true
						rc.check(t, fmt.Sprintf("%s scale %g chiplets %d", name, scale, n), k, n, cfg.CUsPerChiplet, cfg.LineSize)
					}
				}
			}
		}
	}
	for seed := uint64(0); seed < 60; seed++ {
		c := gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 4})
		for _, s := range c.Specs {
			nparts := len(s.Chiplets)
			if nparts == 0 {
				nparts = 4
			}
			for _, k := range s.Workload.Sequence {
				rc.check(t, fmt.Sprintf("gen seed %d", seed), k, nparts, 4, 64)
			}
		}
	}
	if rc.accepted == 0 {
		t.Fatal("NoL1Reuse accepted no partition at all")
	}
}

// TestStreamKernelsElided: every babelstream and hotspot3D partition at 4
// chiplets under the default schedule runs without the L1.
func TestStreamKernelsElided(t *testing.T) {
	cfg := config.Default(4)
	for _, name := range []string{"babelstream", "hotspot3D"} {
		w, err := workloads.Build(name, kernels.NewAllocator(0x1000_0000, cfg.PageSize), workloads.Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range w.Sequence {
			for part := 0; part < cfg.NumChiplets; part++ {
				if !kernels.NoL1Reuse(k, part, cfg.NumChiplets, cfg.CUsPerChiplet, cfg.LineSize, kernels.RoundRobinCU) {
					t.Errorf("%s: kernel %s partition %d keeps the L1", name, k.Name, part)
				}
			}
		}
	}
}

// TestNoL1ReuseCases pins each condition of NoL1Reuse on a small kernel:
// 16 WGs over 2 partitions of 4 CUs, 64-line structures (4-line slices).
func TestNoL1ReuseCases(t *testing.T) {
	alloc := kernels.NewAllocator(0x1000_0000, 4096)
	x := alloc.Alloc("x", 1024, 4)
	y := alloc.Alloc("y", 1024, 4)
	read := func(d *kernels.DataStructure) kernels.Arg {
		return kernels.Arg{DS: d, Mode: kernels.Read, Pattern: kernels.Linear}
	}
	stencil := func(halo int) kernels.Arg {
		return kernels.Arg{DS: x, Mode: kernels.Read, Pattern: kernels.Stencil, HaloLines: halo}
	}
	cases := []struct {
		name  string
		args  []kernels.Arg
		sched kernels.CUSchedule
		want  bool
	}{
		{"linear reads", []kernels.Arg{read(x), read(y)}, kernels.RoundRobinCU, true},
		{"linear reads, chunked", []kernels.Arg{read(x), read(y)}, kernels.ChunkedCU, true},
		{"store over a read structure", []kernels.Arg{read(x), {DS: x, Mode: kernels.ReadWrite, Pattern: kernels.Linear}}, kernels.RoundRobinCU, true},
		{"one broadcast sweep", []kernels.Arg{{DS: x, Mode: kernels.Read, Pattern: kernels.Broadcast}}, kernels.RoundRobinCU, true},
		{"stencil, round robin", []kernels.Arg{stencil(4)}, kernels.RoundRobinCU, true},
		{"indirect read", []kernels.Arg{{DS: x, Mode: kernels.Read, Pattern: kernels.Indirect}}, kernels.RoundRobinCU, false},
		{"two broadcast sweeps", []kernels.Arg{{DS: x, Mode: kernels.Read, Pattern: kernels.Broadcast, Sweeps: 2}}, kernels.RoundRobinCU, false},
		{"one structure read twice", []kernels.Arg{read(x), read(x)}, kernels.RoundRobinCU, false},
		{"read-modify-write over a read structure", []kernels.Arg{read(x), {DS: x, Mode: kernels.ReadWrite, Pattern: kernels.Linear, ReadModifyWrite: true}}, kernels.RoundRobinCU, false},
		{"halo wider than a slice", []kernels.Arg{stencil(5)}, kernels.RoundRobinCU, false},
		{"stencil, chunked", []kernels.Arg{stencil(1)}, kernels.ChunkedCU, false},
	}
	for _, c := range cases {
		k := &kernels.Kernel{Name: c.name, WGs: 16, Args: c.args}
		for part := 0; part < 2; part++ {
			if got := kernels.NoL1Reuse(k, part, 2, 4, 64, c.sched); got != c.want {
				t.Errorf("%s: partition %d accepted = %v, want %v", c.name, part, got, c.want)
			}
			if dup := new(readChecker).repeatedRead(k, part, 2, 4, 64, c.sched); c.want && dup != "" {
				t.Errorf("%s: partition %d: %s", c.name, part, dup)
			}
		}
	}
}
