package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	cpelide "repro"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite digests.json from fresh simulations")

// TestExpectedDigests re-simulates every job the workloads can name and
// compares it with digests.json; -update rewrites the file instead.
func TestExpectedDigests(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("simulates every workload job at full size")
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]digest{}
	for _, s := range specs {
		for _, app := range s.apps {
			for _, p := range protocols {
				sim := simJob{app, p, s.scale}
				cfg := cpelide.DefaultConfig(chiplets)
				w, err := workloads.Build(app, cpelide.NewAllocator(cfg.PageSize), workloads.Params{Scale: sim.scale})
				if err != nil {
					t.Fatal(err)
				}
				r, err := cpelide.Run(cfg, w, cpelide.Options{Protocol: p})
				if err != nil {
					t.Fatal(err)
				}
				if r.StaleReads != 0 {
					t.Fatalf("%s: %d stale reads", sim.key(), r.StaleReads)
				}
				got[sim.key()] = digest{Cycles: r.Cycles, Accesses: r.Accesses, ImageHash: r.ImageHash}
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("digests.json has %d entries, workloads name %d", len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: simulated %+v, digests.json has %+v", k, g, want[k])
		}
	}
}

// smallSpec is a serve-shaped workload small enough for a unit test.
var smallSpec = spec{name: "small", apps: []string{"square"}, scale: 1.0 / 16, bodies: 6, repeats: 12, rounds: 3, poll: time.Millisecond}

func smallCampaign(t *testing.T, want map[string]digest) *campaign {
	t.Helper()
	bodies, err := campaignBodies(smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := startStack()
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := runCampaign(ctx, st, smallSpec, bodies, repeatSchedule(smallSpec, 7, len(bodies)), want)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignPassesWithCommittedDigests(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	c := smallCampaign(t, want)
	if len(c.fails) != 0 {
		t.Fatalf("failures: %v", c.fails)
	}
	if c.attempted() != smallSpec.bodies+smallSpec.repeats {
		t.Fatalf("attempted %d", c.attempted())
	}
	if c.farm.Runs != uint64(smallSpec.bodies) {
		t.Fatalf("farm ran %d simulations for %d bodies", c.farm.Runs, smallSpec.bodies)
	}
	for _, r := range c.cold {
		if r.polls < 1 || r.latency <= 0 {
			t.Fatalf("cold result not timed: %+v", r)
		}
	}
}

// TestPlantedDigestCaught plants a wrong cycle count for one simulation:
// every cold body naming it, and every resubmission of one, must fail.
func TestPlantedDigestCaught(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	planted := simJob{"square", cpelide.ProtocolCPElide, 1.0 / 16}
	d, ok := want[planted.key()]
	if !ok {
		t.Fatalf("no digest for %s", planted.key())
	}
	bad := map[string]digest{}
	for k, v := range want {
		bad[k] = v
	}
	d.Cycles++
	bad[planted.key()] = d

	bodies, err := campaignBodies(smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	sched := repeatSchedule(smallSpec, 7, len(bodies))
	wantFails := 0
	for _, b := range bodies {
		if b.sim == planted {
			wantFails++
		}
	}
	for _, i := range sched {
		if bodies[i].sim == planted {
			wantFails++
		}
	}
	if wantFails == 0 {
		t.Fatal("seed 7 draws no body of the planted simulation; pick another seed")
	}
	c := smallCampaign(t, bad)
	if len(c.fails) != wantFails {
		t.Fatalf("%d failures, want %d: %v", len(c.fails), wantFails, c.fails)
	}
	if !strings.Contains(c.fails[0].Error(), planted.key()) && !strings.Contains(c.fails[0].Error(), "failed body") {
		t.Fatalf("unexpected failure: %v", c.fails[0])
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	sim := simJob{"square", cpelide.ProtocolCPElide, 1.0 / 16}
	cfg := cpelide.DefaultConfig(chiplets)
	w, err := workloads.Build(sim.app, cpelide.NewAllocator(cfg.PageSize), workloads.Params{Scale: sim.scale})
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := cpelide.Run(cfg, w, cpelide.Options{Protocol: sim.proto})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{epoch: time.Now()}
	lt := newLayerTimes()
	traced, err := tracedRun(tr, lt, 0, sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameReport(traced, untraced); err != nil {
		t.Fatal(err)
	}
	if len(lt.prelaunch["CPElide"]) != int(untraced.Kernels) {
		t.Fatalf("%d PreLaunch timings for %d kernels", len(lt.prelaunch["CPElide"]), untraced.Kernels)
	}
	if len(lt.gap) != int(untraced.Kernels)-1 || len(lt.machineNew) != 1 || len(lt.access["CPElide"]) == 0 {
		t.Fatalf("timings: %d gaps, %d machine.New, %d access samples", len(lt.gap), len(lt.machineNew), len(lt.access["CPElide"]))
	}

	// The comparison has teeth: one counter off is a mismatch.
	traced.Sheet.Inc(0)
	if sameReport(traced, untraced) == nil {
		t.Fatal("a differing counter sheet was not caught")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		left int
	}{
		{n: 19, ok: false},
		{n: 20, p: 50, ok: true, left: 10},
		{n: 40, p: 75, ok: true, left: 10},
		{n: 199, p: 90, ok: true, left: 19},
		{n: 200, p: 95, ok: true, left: 10},
		{n: 999, p: 95, ok: true, left: 49},
		{n: 1000, p: 99, ok: true, left: 10},
		{n: 10000, p: 99.9, ok: true, left: 10},
	} {
		p, ok := tailPercentile(tc.n)
		if ok != tc.ok || p != tc.p {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.p, tc.ok)
		}
		if ok && beyond(tc.n, p) != tc.left {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, p, beyond(tc.n, p), tc.left)
		}
	}
	d := newDist([]float64{5, 1, 4, 2, 3, 6})
	if d.median() != 3.5 || d.pct(50) != 3 || d.pct(100) != 6 || d.pct(1) != 1 {
		t.Errorf("median %g p50 %g p100 %g p1 %g", d.median(), d.pct(50), d.pct(100), d.pct(1))
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 140}, {130, 150}}, 60},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to parent", []interval{{50, 120}, {180, 260}}, 60},
		{"outside", []interval{{0, 50}, {300, 400}}, 100},
		{"touching", []interval{{100, 150}, {150, 200}}, 0},
	} {
		ch := append([]interval(nil), tc.children...)
		sort.Slice(ch, func(i, j int) bool { return ch[i].end > ch[j].end }) // order must not matter
		if got := selfTime(parent, ch); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCampaignBodies(t *testing.T) {
	for _, s := range specs {
		a, err := campaignBodies(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := campaignBodies(s, 3)
		c, _ := campaignBodies(s, 4)
		seen := map[string]bool{}
		perSim := map[simJob]int{}
		same, differ := true, false
		for i := range a {
			same = same && string(a[i].json) == string(b[i].json)
			differ = differ || a[i].sim != c[i].sim
			seen[string(a[i].json)] = true
			perSim[a[i].sim]++
		}
		if !same || !differ {
			t.Errorf("%s: same seed same bodies: %v; other seed other order: %v", s.name, same, differ)
		}
		if len(seen) != len(a) {
			t.Errorf("%s: %d distinct bodies of %d", s.name, len(seen), len(a))
		}
		// Every (app, protocol) pair appears equally often, so the seed
		// changes only the order, never the mix's proportions.
		for sim, n := range perSim {
			if n != len(a)/(len(s.apps)*len(protocols)) {
				t.Errorf("%s: %s appears %d times in %d bodies", s.name, sim.key(), n, len(a))
			}
		}
		if s.bodies == 0 && s.rounds != len(s.apps)*len(protocols) {
			t.Errorf("%s: %d rounds for %d pairs", s.name, s.rounds, len(s.apps)*len(protocols))
		}
		sched := repeatSchedule(s, 3, len(a))
		for r := range s.rounds {
			_, done := split(len(a), s.rounds, r)
			lo, hi := split(len(sched), s.rounds, r)
			for _, i := range sched[lo:hi] {
				if i >= done {
					t.Fatalf("%s: round %d resubmits body %d before its round", s.name, r, i)
				}
			}
		}
	}
}
