package kernels

import "repro/internal/mem"

// Access is one line-granularity memory access emitted by the generator.
type Access struct {
	CU    int      // CU index within the chiplet
	Line  mem.Addr // line-aligned address
	Write bool
	// Atomic marks a scatter update performed as a read-modify-write at
	// the line's home ordering point (how GPUs implement cross-WG global
	// updates in graph workloads); it bypasses the requester's L2.
	Atomic bool
	Arg    int // index into Kernel.Args
}

// Sink consumes generated accesses in program order.
type Sink func(Access)

// CUSchedule selects how a chiplet's local CP assigns its WGs to CUs.
type CUSchedule uint8

const (
	// RoundRobinCU issues WGs round-robin across the chiplet's CUs, the
	// common WG-scheduler policy (Section II-B).
	RoundRobinCU CUSchedule = iota
	// ChunkedCU gives each CU a contiguous block of WGs (LADM-style
	// locality-centric assignment), improving per-CU L1 locality for
	// patterns with spatial overlap between adjacent WGs.
	ChunkedCU
)

// cuOf maps local WG index wg of myWGs onto one of cus CUs under the
// schedule.
func (s CUSchedule) cuOf(wg, myWGs, cus int) int {
	if s == ChunkedCU && myWGs > 0 {
		cu := wg * cus / myWGs
		if cu >= cus {
			cu = cus - 1
		}
		return cu
	}
	return wg % cus
}

// Partition returns the half-open WG interval [lo, hi) assigned to chiplet
// part of nparts under static kernel-wide partitioning.
func Partition(wgs, nparts, part int) (lo, hi int) {
	return wgs * part / nparts, wgs * (part + 1) / nparts
}

// lineSlice returns WG wg's cache-line interval [lo, hi) of a structure
// with n lines split across wgs work-groups. Slicing at line granularity
// (rather than elements) keeps adjacent WGs — and therefore chiplets — from
// write-sharing a line, mirroring the paper's page-aligned allocations that
// "reduce unintentional false sharing".
func lineSlice(n, wgs, wg int) (lo, hi int) {
	return n * wg / wgs, n * (wg + 1) / wgs
}

// dsLines returns the number of cache lines d occupies.
func dsLines(d *DataStructure, lineSize int) int {
	return int((d.Bytes + uint64(lineSize) - 1) / uint64(lineSize))
}

// PartitionByteRange returns the byte range of d that chiplet partition
// part of nparts covers when a grid of wgs WGs is statically partitioned:
// the union of the partition's per-WG line slices.
func PartitionByteRange(d *DataStructure, wgs, nparts, part, lineSize int) mem.Range {
	wgLo, wgHi := Partition(wgs, nparts, part)
	if wgLo >= wgHi {
		return mem.Range{}
	}
	total := dsLines(d, lineSize)
	loLine, _ := lineSlice(total, wgs, wgLo)
	_, hiLine := lineSlice(total, wgs, wgHi-1)
	return mem.Range{
		Lo: d.Base + mem.Addr(loLine*lineSize),
		Hi: d.Base + mem.Addr(hiLine*lineSize),
	}
}

// ArgRanges returns the address ranges chiplet partition part of nparts is
// declared to access for argument arg — the metadata the paper's
// hipSetAccessModeRange passes to the global CP. Broadcast and Indirect
// arguments conservatively declare the whole structure (for Indirect,
// software "must specify all regions that may be accessed by the kernel").
func ArgRanges(k *Kernel, arg, part, nparts, lineSize int) mem.RangeSet {
	a := &k.Args[arg]
	d := a.DS
	switch a.Pattern {
	case Broadcast, Indirect:
		return mem.NewRangeSet(d.Range())
	case Linear, Strided, Stencil:
		// Partitioned: fall through to the per-chiplet byte range below.
	}
	r := PartitionByteRange(d, k.WGs, nparts, part, lineSize)
	if r.Empty() {
		return mem.RangeSet{}
	}
	if a.Pattern == Stencil && a.HaloLines > 0 {
		halo := mem.Addr(a.HaloLines * lineSize)
		if r.Lo >= d.Base+halo {
			r.Lo -= halo
		} else {
			r.Lo = d.Base
		}
		if r.Hi+halo <= d.Base+mem.Addr(d.Bytes) {
			r.Hi += halo
		} else {
			r.Hi = d.Base + mem.Addr(d.Bytes)
		}
	}
	return mem.NewRangeSet(r)
}

// splitmix64 advances and scrambles a seed; used for deterministic
// per-(workload, kernel instance, WG) randomness in indirect patterns.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rng is a xorshift64* stream for indirect-access generation.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	s := splitmix64(seed)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return rng{s: s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

// Generate emits kernel k's memory accesses for the WGs that static
// partitioning assigns to chiplet part of nparts, distributing WGs
// round-robin over cus CUs. inst is the dynamic kernel index (it seeds
// indirect patterns) and seed is the workload seed. Accesses are emitted in
// WG order, matching the local CP's round-robin dispatch.
//
// The emitted trace is deterministic for a given (k, inst, seed, part,
// nparts, cus, lineSize).
func Generate(k *Kernel, inst int, seed uint64, part, nparts, cus, lineSize int, sink Sink) {
	GenerateScheduled(k, inst, seed, part, nparts, cus, lineSize, RoundRobinCU, sink)
}

// GenerateScheduled is Generate with an explicit WG-to-CU schedule.
func GenerateScheduled(k *Kernel, inst int, seed uint64, part, nparts, cus, lineSize int, sched CUSchedule, sink Sink) {
	shift := uint(0)
	for 1<<shift != lineSize {
		shift++
	}
	wgLo, wgHi := Partition(k.WGs, nparts, part)
	myWGs := wgHi - wgLo
	for wg := wgLo; wg < wgHi; wg++ {
		cu := sched.cuOf(wg-wgLo, myWGs, cus)
		for ai := range k.Args {
			a := &k.Args[ai]
			d := a.DS
			switch a.Pattern {
			case Broadcast:
				// Handled once per chiplet below, not per WG.
				continue
			case Indirect:
				genIndirect(k, a, ai, inst, seed, wg, cu, shift, sink)
				continue
			case Linear, Strided, Stencil:
				// Partitioned linear walk below.
			}
			lo, hi := lineSlice(dsLines(d, lineSize), k.WGs, wg)
			if lo >= hi {
				continue
			}
			loLine := d.Base + mem.Addr(lo*lineSize)
			hiLine := d.Base + mem.Addr((hi-1)*lineSize)
			stride := 1
			if a.Pattern == Strided && a.Stride > 1 {
				stride = a.Stride
			}
			// Stencil halo: read-only lines borrowed from the neighboring
			// slices on both sides.
			if a.Pattern == Stencil && a.HaloLines > 0 {
				for h := 1; h <= a.HaloLines; h++ {
					off := mem.Addr(h * lineSize)
					if loLine >= d.Base+off {
						sink(Access{CU: cu, Line: loLine - off, Write: false, Arg: ai})
					}
					if hiLine+off < d.Base+mem.Addr(d.Bytes) {
						sink(Access{CU: cu, Line: hiLine + off, Write: false, Arg: ai})
					}
				}
			}
			for line := loLine; line <= hiLine; line += mem.Addr(stride * lineSize) {
				switch {
				case a.Mode == Read:
					sink(Access{CU: cu, Line: line, Write: false, Arg: ai})
				case a.ReadModifyWrite:
					sink(Access{CU: cu, Line: line, Write: false, Arg: ai})
					sink(Access{CU: cu, Line: line, Write: true, Arg: ai})
				default:
					sink(Access{CU: cu, Line: line, Write: true, Arg: ai})
				}
			}
		}
	}

	// Broadcast arguments: Sweeps full read passes per chiplet, spread
	// round-robin over the CUs. This captures shared-weight behavior: the
	// first pass fills the chiplet L2, later passes (and later kernels, if
	// nothing invalidates the L2) hit.
	if wgLo < wgHi {
		for ai := range k.Args {
			a := &k.Args[ai]
			if a.Pattern != Broadcast {
				continue
			}
			d := a.DS
			lines := int((d.Bytes + uint64(lineSize) - 1) >> shift)
			for s := 0; s < a.sweeps(); s++ {
				for l := 0; l < lines; l++ {
					sink(Access{
						CU:    l % cus,
						Line:  d.Base + mem.Addr(l<<shift),
						Write: false,
						Arg:   ai,
					})
				}
			}
		}
	}
}

// NoL1Reuse reports whether, in partition part of nparts of kernel k run on
// cus CUs under sched, GenerateScheduled provably emits no two reads of one
// line from one CU. An L1 is empty at launch and only a read miss fills it,
// so no L1 read of such a partition can hit. It accepts only when
//
//   - no arg is an Indirect read: its gathers are random;
//   - no Broadcast arg makes more than one sweep;
//   - no two args that read (ReadModifyWrite and Stencil halos included)
//     span overlapping lines; and
//   - every Stencil halo reaches only the neighbouring slices (each slice is
//     at least HaloLines long) and WGs within distance 2 of each other run
//     on distinct CUs, since a line is read by its own WG and both
//     neighbours. ChunkedCU fails this whenever a CU runs two WGs.
//
// Under these conditions each arg reads a line at most once per WG, WG
// slices are disjoint, and a Broadcast sweep reads each line once.
func NoL1Reuse(k *Kernel, part, nparts, cus, lineSize int, sched CUSchedule) bool {
	wgLo, wgHi := Partition(k.WGs, nparts, part)
	myWGs := wgHi - wgLo
	for i := range k.Args {
		a := &k.Args[i]
		switch {
		case a.Pattern == Indirect && a.Mode == Read:
			return false
		case a.Pattern == Broadcast && a.sweeps() > 1:
			return false
		case a.Pattern == Stencil && a.HaloLines > 0:
			if dsLines(a.DS, lineSize)/k.WGs < a.HaloLines {
				return false
			}
			for wg := 0; wg+1 < myWGs; wg++ {
				cu := sched.cuOf(wg, myWGs, cus)
				if cu == sched.cuOf(wg+1, myWGs, cus) ||
					wg+2 < myWGs && cu == sched.cuOf(wg+2, myWGs, cus) {
					return false
				}
			}
		}
		if !a.reads() {
			continue
		}
		for j := range k.Args[:i] {
			if b := &k.Args[j]; b.reads() && readSpan(a, lineSize).Overlaps(readSpan(b, lineSize)) {
				return false
			}
		}
	}
	return true
}

// reads reports whether a may emit reads (conservatively for Indirect
// read-modify-writes, which run as atomics).
func (a *Arg) reads() bool {
	return a.Mode == Read || a.ReadModifyWrite || a.Pattern == Stencil && a.HaloLines > 0
}

// readSpan returns the addresses any line a emits can take.
func readSpan(a *Arg, lineSize int) mem.Range {
	d := a.DS
	return mem.Range{Lo: d.Base, Hi: d.Base + mem.Addr(dsLines(d, lineSize)*lineSize)}
}

// genIndirect emits data-dependent gathers/scatters for one WG: for each
// line of the WG's share, touchesPerLine pseudo-random lines of the
// structure (optionally restricted to a hot fraction) are accessed.
func genIndirect(k *Kernel, a *Arg, ai, inst int, seed uint64, wg, cu int, shift uint, sink Sink) {
	d := a.DS
	lines := int(d.Bytes >> shift)
	if lines == 0 {
		return
	}
	hot := lines
	if a.HotFraction > 0 && a.HotFraction < 1 {
		hot = int(float64(lines) * a.HotFraction)
		if hot < 1 {
			hot = 1
		}
	}
	var idxLines int
	if a.WorkLinesPerWG > 0 {
		idxLines = a.WorkLinesPerWG
	} else {
		lo, hi := lineSlice(lines, k.WGs, wg)
		idxLines = hi - lo
	}
	if idxLines < 1 {
		idxLines = 1
	}
	r := newRNG(seed ^ uint64(inst)*0x9e3779b97f4a7c15 ^ uint64(wg)<<20 ^ uint64(ai)<<40)
	for i := 0; i < idxLines; i++ {
		for t := 0; t < a.touchesPerLine(); t++ {
			l := int(r.next() % uint64(hot))
			line := d.Base + mem.Addr(l<<shift)
			if a.Mode == Read {
				sink(Access{CU: cu, Line: line, Write: false, Arg: ai})
			} else {
				// Scatter updates execute as atomic read-modify-writes at
				// the home ordering point (enforced by Kernel.Validate).
				sink(Access{CU: cu, Line: line, Write: true, Atomic: true, Arg: ai})
			}
		}
	}
}
