// Package coherence defines the coherence-protocol interface the simulated
// GPU's command processors drive, plus the baseline VIPER-chiplet protocol
// (Section IV-C of the paper): per-chiplet write-back L2s for locally homed
// data, write-through forwarding of remote stores to the home node, remote
// reads served by the home L3 bank without local caching, and conservative
// GPU-wide L2 flush+invalidate at every kernel boundary.
package coherence

import (
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Launch is one dynamic kernel instance as the global CP sees it: the
// kernel, its chiplet assignment under static kernel-wide partitioning, and
// the per-argument, per-chiplet address-range metadata provided by the
// hipSetAccessMode / hipSetAccessModeRange annotations.
type Launch struct {
	Kernel *kernels.Kernel
	Inst   int // dynamic kernel index within the workload
	Stream int

	// Chiplets lists the chiplets the kernel's WGs are partitioned across,
	// ascending. Partition i of len(Chiplets) runs on Chiplets[i].
	Chiplets []int

	// ArgRanges[a][i] is the declared address-range set of argument a on
	// Chiplets[i]. When only access modes were annotated
	// (hipSetAccessMode), every chiplet's set is the structure's full
	// range.
	ArgRanges [][]mem.RangeSet
}

// PartOf returns the partition slot of chiplet c in the launch, or -1.
func (l *Launch) PartOf(c int) int {
	for i, ch := range l.Chiplets {
		if ch == c {
			return i
		}
	}
	return -1
}

// SyncKind distinguishes the two implicit synchronization operations.
type SyncKind uint8

const (
	// Release flushes a chiplet's dirty L2 data to the ordering point.
	Release SyncKind = iota
	// Acquire invalidates a chiplet's L2 (writing dirty lines back first).
	Acquire
)

func (k SyncKind) String() string {
	if k == Release {
		return "release"
	}
	return "acquire"
}

// SyncOp is one chiplet-targeted synchronization operation. With an empty
// range set the operation covers the whole cache — the default, since the
// global CP works on virtual addresses and cannot target physical L2 lines
// (Section VI). A non-empty set models the fine-grained hardware
// range-flush extension.
type SyncOp struct {
	Chiplet int
	Kind    SyncKind
	Ranges  mem.RangeSet
}

// SyncPlan is everything a protocol wants done before a kernel's WGs
// dispatch.
type SyncPlan struct {
	// Ops may alias a protocol-owned scratch buffer (see Baseline.TakeOps):
	// the slice is valid only until the protocol's next PreLaunch or
	// Finalize call. Consumers that outlive the boundary must copy the ops.
	Ops []SyncOp
	// CPCycles is command-processor processing time (table lookups,
	// acquire/release generation) in core cycles; it is hidden behind
	// enqueue-ahead for all but the first kernel.
	CPCycles int
	// Messages counts global CP <-> local CP crossbar messages implied by
	// the plan (requests + acks + launch enables).
	Messages int
	// LatencyFactor serializes the plan's exposed latency this many times
	// (default 1). The Section VI chiplet-scaling study sets 2 or 4 to
	// mimic 8- and 16-chiplet synchronization cost conservatively.
	LatencyFactor int
	// HostRoundTripCycles is off-device latency (driver-managed
	// synchronization) exposed serially before the launch, never hidden by
	// the CP pipeline.
	HostRoundTripCycles int
}

// Level reports where an access was served, for tests and diagnostics.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelL2Remote // another chiplet's L2 (HMG home-node access)
	LevelL3
	LevelDRAM
)

// AccessResult is the timing outcome of one line-granularity access.
type AccessResult struct {
	Cycles int
	Level  Level
}

// Protocol is a coherence policy: it decides what implicit synchronization
// happens at kernel launches and how individual accesses route through the
// hierarchy.
type Protocol interface {
	Name() string

	// PreLaunch is called once per kernel launch, before WG dispatch, with
	// the launch's argument metadata. The returned plan's operations are
	// executed (and their latency exposed) before any WG issues memory
	// accesses.
	PreLaunch(l *Launch) SyncPlan

	// Access performs one memory access by a CU.
	Access(chiplet, cu int, line mem.Addr, write, atomic bool) AccessResult

	// Finalize is called after the last kernel so outstanding dirty data
	// reaches the ordering point (the device-level release at the end of
	// the program).
	Finalize() SyncPlan
}

// Degradable is implemented by protocols that keep synchronization state the
// CP may have to abandon under faults: when the watchdog gives up on a
// targeted operation, the tracked state for that chiplet is marked so
// conservatively that every future boundary synchronizes at least as much
// as the baseline would. Stateless protocols (Baseline, HMG's flush-free
// boundaries) need not implement it — they have no belief to abandon.
type Degradable interface {
	// DegradeChiplet abandons tracked state for one chiplet after the
	// reliable fallback (full L2 flush+invalidate) was applied to it.
	DegradeChiplet(chiplet int)
}

// ---------------------------------------------------------------------------
// Baseline VIPER-chiplet protocol.
// ---------------------------------------------------------------------------

// Baseline implements the extended VIPER GPU coherence protocol for
// chiplet-based GPUs. Its access path is shared with CPElide (which changes
// only the kernel-boundary behavior, not the protocol).
type Baseline struct {
	M *machine.Machine

	// opsScratch is the reusable backing array for the SyncPlan.Ops slices
	// this protocol (and protocols embedding it) builds. A plan is consumed
	// by the executor before the protocol's next PreLaunch/Finalize call —
	// kernel dispatch is synchronous and observers copy what they keep — so
	// every boundary can reuse the previous boundary's allocation.
	opsScratch []SyncOp
}

// TakeOps returns the protocol-owned, length-zero buffer for building the
// next SyncPlan's Ops. The resulting plan is valid only until the next
// PreLaunch or Finalize call on this protocol; callers that keep ops longer
// must copy them. Pass the built slice to KeepOps so a grown backing array
// is reused at the next boundary.
func (b *Baseline) TakeOps() []SyncOp { return b.opsScratch[:0] }

// KeepOps stores a slice obtained from TakeOps (and possibly grown by
// appends) back into the protocol for reuse.
func (b *Baseline) KeepOps(ops []SyncOp) { b.opsScratch = ops }

// NewBaseline returns the baseline protocol over machine m.
func NewBaseline(m *machine.Machine) *Baseline { return &Baseline{M: m} }

// Name implements Protocol.
func (b *Baseline) Name() string { return "Baseline" }

// PreLaunch conservatively performs the GPU-wide implicit synchronization of
// current designs: every chiplet's L2 is flushed and invalidated at every
// kernel boundary, because the L3 is the inter-chiplet ordering point and
// the VI protocol tracks no sharers. On a monolithic GPU the L2 is the
// ordering point, so only the L1s are invalidated (handled by the executor
// for every protocol).
func (b *Baseline) PreLaunch(l *Launch) SyncPlan {
	if b.M.Cfg.IsMonolithic() {
		return SyncPlan{CPCycles: b.M.Cfg.CPLatencyCycles()}
	}
	plan := SyncPlan{CPCycles: b.M.Cfg.CPLatencyCycles()}
	ops := b.TakeOps()
	for c := 0; c < b.M.Cfg.NumChiplets; c++ {
		ops = append(ops,
			SyncOp{Chiplet: c, Kind: Release},
			SyncOp{Chiplet: c, Kind: Acquire},
		)
	}
	b.KeepOps(ops)
	plan.Ops = ops
	plan.Messages = 2 // broadcast + gathered acks modeled as one each way
	return plan
}

// Access implements the VIPER-chiplet access path. Locally homed lines are
// cached write-back in the chiplet's L2; remotely homed lines are never
// cached locally — reads forward to the home node and stores write through
// to it. Atomic accesses (scatter updates) execute at the home L3 bank, the
// ordering point, and bypass the L2s entirely.
func (b *Baseline) Access(chiplet, cu int, line mem.Addr, write, atomic bool) AccessResult {
	m := b.M
	cfg := &m.Cfg
	home := m.Home(line, chiplet)

	if atomic {
		return b.atomicAccess(chiplet, cu, line, write, home)
	}

	if write {
		ver := m.Mem.Store(line)
		m.L1WriteThrough(chiplet, cu, line, ver)
		m.Sheet.Inc(stats.L2Accesses)
		if home == chiplet {
			// Local store: write-back with write-allocate.
			if m.L2[chiplet].Write(line, ver) {
				m.Sheet.Inc(stats.L2Hits)
				m.BookL2(chiplet, cfg.LineSize)
				return AccessResult{Cycles: cfg.L2LocalLatency, Level: LevelL2}
			}
			// Write-allocate without fetch: VIPER's byte-granular dirty
			// masks let full-line streaming stores install without reading
			// the line from below.
			m.Sheet.Inc(stats.L2Misses)
			m.BookL2(chiplet, cfg.LineSize+cfg.LineSize/2)
			b.fillL2(chiplet, line, ver, true)
			return AccessResult{Cycles: cfg.L2LocalLatency, Level: LevelL2}
		}
		// Remote store: write through to the home node; no local copy.
		m.Sheet.Inc(stats.L2Misses)
		m.Sheet.Inc(stats.L2WriteThru)
		cy := m.L3Write(line, ver, chiplet, home)
		return AccessResult{Cycles: cy, Level: LevelL3}
	}

	// Read path.
	if ver, hit := m.L1Read(chiplet, cu, line); hit {
		m.Mem.Observe(line, ver)
		return AccessResult{Cycles: cfg.L1Latency, Level: LevelL1}
	}
	m.Sheet.Inc(stats.L2Accesses)
	if home == chiplet {
		if ver, hit := m.L2[chiplet].Read(line); hit {
			m.Sheet.Inc(stats.L2Hits)
			m.BookL2(chiplet, cfg.LineSize)
			m.Mem.Observe(line, ver)
			m.L1Fill(chiplet, cu, line, ver)
			return AccessResult{Cycles: cfg.L2LocalLatency, Level: LevelL2}
		}
	}
	m.Sheet.Inc(stats.L2Misses)
	ver, cy := m.L3Read(line, chiplet, home)
	m.Mem.Observe(line, ver)
	if home == chiplet {
		m.BookL2(chiplet, cfg.LineSize+cfg.LineSize/2)
		b.fillL2(chiplet, line, ver, false)
	}
	m.L1Fill(chiplet, cu, line, ver)
	level := LevelL3
	if cy >= cfg.L3Latency+cfg.DRAMLatency {
		level = LevelDRAM
	}
	return AccessResult{Cycles: cy, Level: level}
}

// atomicAccess executes a read-modify-write at the ordering point: the
// shared L2 on a monolithic GPU, the home L3 bank on a chiplet GPU.
func (b *Baseline) atomicAccess(chiplet, cu int, line mem.Addr, write bool, home int) AccessResult {
	m := b.M
	cfg := &m.Cfg
	if cfg.IsMonolithic() {
		m.Sheet.Inc(stats.L2Accesses)
		ver, hit := m.L2[0].Read(line)
		cy := cfg.L2LocalLatency
		if hit {
			m.Sheet.Inc(stats.L2Hits)
		} else {
			m.Sheet.Inc(stats.L2Misses)
			v, extra := m.L3Read(line, 0, 0)
			ver, cy = v, extra
		}
		m.Mem.Observe(line, ver)
		if write {
			b.fillL2(0, line, m.Mem.Store(line), true)
		}
		return AccessResult{Cycles: cy, Level: LevelL2}
	}
	ver, cy := m.L3Read(line, chiplet, home)
	m.Mem.Observe(line, ver)
	if write {
		nv := m.Mem.Store(line)
		m.Mem.Commit(line, nv)
		m.L3[home].Fill(line, 0, true)
	}
	return AccessResult{Cycles: cy, Level: LevelL3}
}

// fillL2 installs a line in the chiplet's L2, writing back a dirty victim.
func (b *Baseline) fillL2(chiplet int, line mem.Addr, ver uint32, dirty bool) {
	m := b.M
	if ev := m.L2[chiplet].Fill(line, ver, dirty); ev.Evicted && ev.Dirty {
		m.CommitWriteback(ev.Line, ev.Ver, chiplet)
	}
}

// Finalize flushes every chiplet's dirty data — the device-level release at
// program end that all configurations pay.
func (b *Baseline) Finalize() SyncPlan {
	var plan SyncPlan
	ops := b.TakeOps()
	for c := 0; c < b.M.Cfg.NumChiplets; c++ {
		ops = append(ops, SyncOp{Chiplet: c, Kind: Release})
	}
	b.KeepOps(ops)
	plan.Ops = ops
	return plan
}
