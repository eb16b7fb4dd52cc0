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
	Trace     string `json:"trace_sha256"`
}

// dispatchDigests runs seeds 0-59 of the generated DAG family under every
// protocol, with and without fault injection, on a small-cache machine.
func dispatchDigests(t *testing.T) []dispatchDigest {
	t.Helper()
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

	var out []dispatchDigest
	for seed := uint64(0); seed < 60; seed++ {
		c := gen.Generate(seed, gen.Config{Chiplets: 4, MaxKernels: 6, MaxStreams: 4})
		for _, p := range []Protocol{ProtocolBaseline, ProtocolCPElide, ProtocolHMG} {
			for _, fc := range []*FaultConfig{nil, faulted} {
				rec := NewTrace(0)
				opt := Options{Protocol: p, Placement: c.Placement, PerKernelStats: true, Trace: rec, Faults: fc}
				name := fmt.Sprintf("%d/%s/%v/faults=%t", seed, c.Name, p, fc != nil)
				rep, err := RunStreams(cfg, c.Specs, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				repJSON, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				evJSON, err := json.Marshal(rec.Events())
				if err != nil {
					t.Fatal(err)
				}
				rs, ts := sha256.Sum256(repJSON), sha256.Sum256(evJSON)
				out = append(out, dispatchDigest{
					Name:      name,
					Cycles:    rep.Cycles,
					Accesses:  rep.Accesses,
					ImageHash: rep.ImageHash,
					Report:    hex.EncodeToString(rs[:]),
					Trace:     hex.EncodeToString(ts[:]),
				})
			}
		}
	}
	return out
}

// TestDispatchDigests pins multi-stream dispatch order. Concurrent streams
// are where the CP's choice of which ready kernel to launch at each
// completion time decides the simulation, so any change to the runner's
// stepping shows up here as a digest mismatch. Regenerate with
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
