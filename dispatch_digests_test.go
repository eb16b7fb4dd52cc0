package cpelide

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/workloads"
)

var updateDispatch = flag.Bool("update", false, "rewrite testdata/dispatch_digests.json from the current simulator")

const dispatchDigestsPath = "testdata/dispatch_digests.json"

// dispatchDigest pins one generated multi-stream run: its headline results
// plus SHA-256 digests of the full JSON report and of the trace events.
type dispatchDigest struct {
	Name      string `json:"name"`
	Cycles    uint64 `json:"cycles"`
	Accesses  uint64 `json:"accesses"`
	ImageHash uint64 `json:"image_hash"`
	Report    string `json:"report_sha256"`
	Trace     string `json:"trace_sha256,omitempty"`
}

// digestOf pins rep, and rec's trace events when rec is non-nil.
func digestOf(t *testing.T, name string, rep *Report, rec *TraceRecorder) dispatchDigest {
	t.Helper()
	repJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	rs := sha256.Sum256(repJSON)
	d := dispatchDigest{
		Name:      name,
		Cycles:    rep.Cycles,
		Accesses:  rep.Accesses,
		ImageHash: rep.ImageHash,
		Report:    hex.EncodeToString(rs[:]),
	}
	if rec != nil {
		evJSON, err := json.Marshal(rec.Events())
		if err != nil {
			t.Fatal(err)
		}
		ts := sha256.Sum256(evJSON)
		d.Trace = hex.EncodeToString(ts[:])
	}
	return d
}

// benchCase is a single-stream workload run on the default machine,
// pinned as bench/<workload>/<protocol>.
type benchCase struct {
	Workload string
	Scale    float64
}

var benchCases = []benchCase{{"square", 0.1}, {"babelstream", 0.1}}

var digestProtocols = []Protocol{ProtocolBaseline, ProtocolCPElide, ProtocolHMG}

// runBenchCase builds c's workload afresh and runs it under p.
func runBenchCase(t *testing.T, c benchCase, p Protocol) *Report {
	t.Helper()
	cfg := DefaultConfig(4)
	w, err := workloads.Build(c.Workload, NewAllocator(cfg.PageSize), workloads.Params{Scale: c.Scale})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg, w, Options{Protocol: p})
	if err != nil {
		t.Fatalf("%s/%v: %v", c.Workload, p, err)
	}
	return rep
}

// variantCase is one boundary-plan variant of the generated DAG family,
// pinned as variant/<seed>/<dag>/<protocol>/<name>/faults=<bool>.
type variantCase struct {
	Name   string
	Opt    Options
	Elided bool // CPElide only
}

var variantCases = []variantCase{
	{Name: "driver", Opt: Options{DriverManaged: true}},
	{Name: "sets=4", Opt: Options{SyncLatencySets: 4}},
	{Name: "rangeops", Opt: Options{CPElideRangeOps: true}, Elided: true},
	{Name: "mutate=drop-acquire", Opt: Options{Mutate: MutateDropAcquire}},
	{Name: "mutate=drop-release", Opt: Options{Mutate: MutateDropRelease}},
	{Name: "mutate=wrong-chiplet", Opt: Options{Mutate: MutateWrongChiplet}},
}

// dispatchDigests runs three input families: the bench cases under every
// protocol; seeds 0-59 of the generated DAG family under every protocol,
// with and without fault injection, on a small-cache machine; and seeds
// 0-19 of that family under Baseline and CPElide with each variantCase
// (mutated runs carry an oracle).
func dispatchDigests(t *testing.T) []dispatchDigest {
	t.Helper()
	var out []dispatchDigest
	for _, c := range benchCases {
		for _, p := range digestProtocols {
			name := fmt.Sprintf("bench/%s/%v", c.Workload, p)
			out = append(out, digestOf(t, name, runBenchCase(t, c, p), nil))
		}
	}

	faulted, err := ParseFaultSpec("drop=0.1,delay=0.05,link=0.01")
	if err != nil {
		t.Fatal(err)
	}
	faulted.Seed = 7
	cfg := DefaultConfig(4)
	cfg.CUsPerChiplet = 4
	cfg.L1SizeBytes = 1 << 10
	cfg.L2SizeBytes = 64 << 10
	cfg.L3SizeBytes = 128 << 10

	for seed := uint64(0); seed < 60; seed++ {
		c := gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 4})
		for _, p := range digestProtocols {
			for _, fc := range []*FaultConfig{nil, faulted} {
				rec := NewTrace(0)
				opt := Options{Protocol: p, Placement: c.Placement, PerKernelStats: true, Trace: rec, Faults: fc}
				name := fmt.Sprintf("%d/%s/%v/faults=%t", seed, c.Name, p, fc != nil)
				rep, err := RunStreams(cfg, c.Specs, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out = append(out, digestOf(t, name, rep, rec))
			}
		}
	}

	for seed := uint64(0); seed < 20; seed++ {
		c := gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 4})
		for _, p := range []Protocol{ProtocolBaseline, ProtocolCPElide} {
			for _, v := range variantCases {
				if v.Elided && p != ProtocolCPElide {
					continue
				}
				for _, fc := range []*FaultConfig{nil, faulted} {
					rec := NewTrace(0)
					opt := v.Opt
					opt.Protocol, opt.Placement, opt.PerKernelStats, opt.Trace, opt.Faults = p, c.Placement, true, rec, fc
					if opt.Mutate != MutateNone {
						opt.Oracle = NewOracle(p)
					}
					name := fmt.Sprintf("variant/%d/%s/%v/%s/faults=%t", seed, c.Name, p, v.Name, fc != nil)
					rep, err := RunStreams(cfg, c.Specs, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out = append(out, digestOf(t, name, rep, rec))
				}
			}
		}
	}
	return out
}

// TestDispatchDigests pins multi-stream dispatch order. Concurrent streams
// are where the CP's choice of which ready kernel to launch at each
// completion time decides the simulation, so any change to the runner's
// stepping shows up here as a digest mismatch. The bench family pins the
// headline single-stream runs exactly, in both directions. Regenerate with
// `go test -run TestDispatchDigests -update .` only when reports are meant
// to change, and say why in the changelog.
func TestDispatchDigests(t *testing.T) {
	got := dispatchDigests(t)
	if *updateDispatch {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dispatchDigestsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", dispatchDigestsPath, len(got))
	}
	raw, err := os.ReadFile(dispatchDigestsPath)
	if err != nil {
		t.Fatalf("read digests (run with -update to generate): %v", err)
	}
	var want []dispatchDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("digest file has %d entries, the run produced %d (stale file?)", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch\n got: %+v\nwant: %+v", got[i], want[i])
		}
	}
}
