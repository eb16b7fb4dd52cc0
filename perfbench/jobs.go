package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	cpelide "repro"
	"repro/internal/farm"
	"repro/internal/server"
)

// protocols are the three configurations every workload runs under.
var protocols = []cpelide.Protocol{cpelide.ProtocolBaseline, cpelide.ProtocolCPElide, cpelide.ProtocolHMG}

// chiplets is the machine size of every job.
const chiplets = 4

// clients is both the closed loop's client count and the farm's worker
// count: nproc of the 2-vCPU machine the benchmark was sized on. With
// both vCPUs busy, a run also averages over their separate contention
// from neighbouring machines, which a single serial client does not.
const clients = 2

// spec is one benchmark workload: a job mix served to a closed loop of
// clients by an in-process server over loopback. Why each one exists is
// recorded in README.md.
type spec struct {
	name  string
	apps  []string
	scale float64
	// bodies is the number of cold (first-submission) job bodies per
	// campaign; zero means one body per (app, protocol) pair and client,
	// so each client runs the whole job list serially.
	bodies int
	// repeats is the number of resubmissions of completed bodies per
	// campaign.
	repeats int
	// rounds splits the campaign into rounds of cold bodies, each followed
	// by its share of the resubmissions, so resubmissions are timed
	// throughout the campaign rather than in one burst at its end. For a
	// job list it is the number of (app, protocol) pairs, so a round holds
	// one job's copies and no client idles at its end.
	rounds int
	// poll is the client's fixed result-poll interval: short next to a
	// cold job, yet long enough that polling takes little of the CPU the
	// simulations need (a poll costs about 0.15 ms of CPU).
	poll time.Duration
}

var specs = []spec{
	{name: "stream", apps: []string{"babelstream", "hotspot3D"}, scale: 1,
		repeats: 3000, rounds: 6, poll: 10 * time.Millisecond},
	{name: "irregular", apps: []string{"btree", "sssp"}, scale: 0.5,
		repeats: 3000, rounds: 6, poll: 10 * time.Millisecond},
	// The base scale is a binary fraction, so multiplying it by
	// 1+i*1e-12 (see campaignBodies) can never move a footprint across
	// the builders' 4 Ki-element rounding: every perturbed body simulates
	// exactly what the unperturbed one does and shares its digest.
	{name: "serve", apps: []string{"gaussian", "rnn-lstm-small", "rnn-gru-small", "fw", "square"},
		scale: 1.0 / 16, bodies: 210, repeats: 2000, rounds: 5, poll: 2 * time.Millisecond},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (have stream, irregular, serve)", name)
}

// body is one job submission: its JSON and the digest key of the
// simulation it names.
type body struct {
	json []byte
	sim  simJob
}

// simJob names one simulation independently of the perturbation that makes
// its serving body unique.
type simJob struct {
	app   string
	proto cpelide.Protocol
	scale float64
}

func (j simJob) key() string { return fmt.Sprintf("%s/%s/%g", j.app, j.proto, j.scale) }

// protoName is the server's spelling of a protocol.
func protoName(p cpelide.Protocol) string {
	switch p {
	case cpelide.ProtocolCPElide:
		return "cpelide"
	case cpelide.ProtocolHMG:
		return "hmg"
	default:
		return "baseline"
	}
}

// campaignBodies lays out the campaign's cold bodies, in an order the seed
// fixes, over every (app, protocol) pair. Without a body count each pair
// runs once per client, its copies adjacent so the clients run the same
// job side by side; copies after the first rename their stream, so each
// has its own content hash yet simulates the same. With a body count the
// pairs are repeated evenly up to it and shuffled, and each body perturbs
// its scale so its content hash is unique.
func campaignBodies(s spec, seed uint64) ([]body, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var pairs []simJob
	for _, app := range s.apps {
		for _, p := range protocols {
			pairs = append(pairs, simJob{app, p, s.scale})
		}
	}
	var out []body
	add := func(sim simJob, req server.JobRequest, scale float64) error {
		req.Protocol, req.Scale, req.Chiplets = protoName(sim.proto), scale, chiplets
		b, err := json.Marshal(req)
		out = append(out, body{json: b, sim: sim})
		return err
	}
	if s.bodies == 0 {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, sim := range pairs {
			if err := add(sim, server.JobRequest{Workload: sim.app}, sim.scale); err != nil {
				return nil, err
			}
			for c := 1; c < clients; c++ {
				st := []farm.StreamJob{{Workload: sim.app, Rename: fmt.Sprintf("#%d", c)}}
				if err := add(sim, server.JobRequest{Streams: st}, sim.scale); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	sims := make([]simJob, s.bodies)
	for i := range sims {
		sims[i] = pairs[i%len(pairs)]
	}
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	for i, sim := range sims {
		if err := add(sim, server.JobRequest{Workload: sim.app}, sim.scale*(1+float64(i)*1e-12)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// split returns the bounds of part r when n items are cut into parts
// nearly equal parts.
func split(n, parts, r int) (lo, hi int) { return r * n / parts, (r + 1) * n / parts }

// repeatSchedule draws the body each resubmission names, from the bodies
// whose round has completed by the resubmission's round.
func repeatSchedule(s spec, seed uint64, nBodies int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	out := make([]int, s.repeats)
	for r := range s.rounds {
		_, done := split(nBodies, s.rounds, r)
		lo, hi := split(s.repeats, s.rounds, r)
		for i := lo; i < hi; i++ {
			out[i] = rng.IntN(done)
		}
	}
	return out
}

// distinctSims returns each simulation the bodies name, once, in first-use
// order.
func distinctSims(bodies []body) []simJob {
	seen := map[simJob]bool{}
	var out []simJob
	for _, b := range bodies {
		if !seen[b.sim] {
			seen[b.sim] = true
			out = append(out, b.sim)
		}
	}
	return out
}

// digest is the expected outcome of one simulation.
type digest struct {
	Cycles    uint64 `json:"cycles"`
	Accesses  uint64 `json:"accesses"`
	ImageHash uint64 `json:"image_hash"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]digest, error) {
	var d map[string]digest
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("parse digests.json: %w", err)
	}
	return d, nil
}

// checkReport verifies a report against the expected digest of sim.
func checkReport(want map[string]digest, sim simJob, r *cpelide.Report) error {
	if r.StaleReads != 0 {
		return fmt.Errorf("%s: %d stale reads", sim.key(), r.StaleReads)
	}
	d, ok := want[sim.key()]
	if !ok {
		return fmt.Errorf("%s: no expected digest", sim.key())
	}
	got := digest{Cycles: r.Cycles, Accesses: r.Accesses, ImageHash: r.ImageHash}
	if got != d {
		return fmt.Errorf("%s: digest %+v, want %+v", sim.key(), got, d)
	}
	return nil
}
