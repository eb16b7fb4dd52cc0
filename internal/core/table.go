// Package core implements CPElide, the paper's contribution: a Chiplet
// Coherence Table housed in the global command processor that tracks, per
// data structure and per chiplet, whether a chiplet's L2 may hold Valid,
// Dirty, or Stale copies — and uses that to generate lazy, chiplet-targeted
// implicit acquires (L2 invalidations) and releases (L2 flushes) at kernel
// launches, eliding the conservative GPU-wide synchronization the baseline
// performs at every kernel boundary.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/kernels"
	"repro/internal/mem"
)

// State is the per-chiplet tracking state of a data structure in the
// Chiplet Coherence Table (2 bits per chiplet in the chiplet vector).
type State uint8

const (
	// NotPresent (00): the structure is guaranteed absent from the
	// chiplet's L2.
	NotPresent State = iota
	// Valid (01): the chiplet may hold clean, up-to-date copies.
	Valid
	// Dirty (10): the chiplet may hold modified copies that have not
	// reached the ordering point.
	Dirty
	// Stale (11): the chiplet may hold copies that are no longer the most
	// up-to-date values; they must be invalidated before the chiplet
	// accesses the structure again.
	Stale
)

func (s State) String() string {
	switch s {
	case NotPresent:
		return "NotPresent"
	case Valid:
		return "Valid"
	case Dirty:
		return "Dirty"
	case Stale:
		return "Stale"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ArgView is one kernel argument as the global CP sees it at launch: the
// data structure's identity, the kernel's declared access mode, and the
// per-chiplet address ranges the partitioned WGs will touch (from
// hipSetAccessModeRange, or the full structure per assigned chiplet when
// only hipSetAccessMode was used).
type ArgView struct {
	Base mem.Addr
	Full mem.Range
	Mode kernels.AccessMode
	// Ranges is indexed by machine chiplet ID; an empty set means the
	// chiplet does not access the structure in this kernel. These are the
	// declared (touched) ranges: writes anywhere in them can stale other
	// chiplets' copies.
	Ranges []mem.RangeSet
	// Cacheable is what each chiplet's L2 can actually retain of Ranges:
	// the protocol never caches remotely homed lines, and the global CP
	// knows page placement, so the table tracks only locally homed ranges.
	// Nil means Ranges (everything assumed cacheable).
	Cacheable []mem.RangeSet
}

func (a *ArgView) accesses(c int) bool { return !a.Ranges[c].Empty() }

func (a *ArgView) cacheable(c int) mem.RangeSet {
	if a.Cacheable == nil {
		return a.Ranges[c]
	}
	return a.Cacheable[c]
}

// Op is a chiplet-targeted synchronization operation the table decides on.
type Op struct {
	Chiplet int
	// Flush writes the chiplet's dirty L2 data back (a release); otherwise
	// the op invalidates (an acquire). A chiplet needing both gets two ops.
	Flush bool
	// Ranges is non-empty only in fine-grained range mode (the Section VI
	// hardware range-flush extension); empty means the whole L2.
	Ranges mem.RangeSet
}

// entry is one Chiplet Coherence Table row: 4 bytes base address, 28 bytes
// of address ranges, 1 access-mode bit, and a 2n-bit chiplet vector in the
// paper's accounting.
type entry struct {
	base    mem.Addr
	full    mem.Range
	mode    kernels.AccessMode // most recent conservative mode, diagnostic
	ranges  []mem.RangeSet     // per chiplet: lines possibly cached there
	states  []State            // per chiplet
	lastUse int                // launch sequence of last touch (LRU eviction)
}

func (e *entry) allNotPresent() bool {
	for _, s := range e.states {
		if s != NotPresent {
			return false
		}
	}
	return true
}

// Config sizes and configures a Table.
type Config struct {
	Chiplets int
	// MaxDataStructures is the per-kernel tracking limit; kernels with
	// more arguments are coarsened (Section III-B). Default 8.
	MaxDataStructures int
	// MaxEntries is the table capacity. Default MaxDataStructures * 8.
	MaxEntries int
	// RangeOps makes the emitted operations carry address ranges instead
	// of covering the whole cache (the fine-grained hardware range-flush
	// extension). Default off, as in the paper's main evaluation.
	RangeOps bool
}

func (c Config) withDefaults() Config {
	if c.MaxDataStructures <= 0 {
		c.MaxDataStructures = 8
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = c.MaxDataStructures * 8
	}
	return c
}

// Table is the Chiplet Coherence Table. It is a pure state machine: it never
// touches caches itself but tells the caller which chiplets to flush or
// invalidate before each kernel launch. All methods are single-threaded,
// like the global CP that owns the table.
type Table struct {
	cfg     Config
	entries []*entry // insertion order; scanned linearly (<= 64 rows)
	seq     int

	// Statistics.
	Coarsenings  int
	Evictions    int
	PeakEntries  int
	FlushesIssue int
	InvalsIssue  int
	ParityResets int // parity errors that forced a full table reset
	Degradations int // watchdog give-ups that conservatively marked a chiplet
}

// ErrNoChiplets reports a Table configured without any chiplet to track.
var ErrNoChiplets = errors.New("core: table needs at least one chiplet")

// NewTable builds an empty table for cfg.Chiplets chiplets.
func NewTable(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	if cfg.Chiplets < 1 {
		return nil, ErrNoChiplets
	}
	return &Table{cfg: cfg}, nil
}

// Len returns the current number of entries.
func (t *Table) Len() int { return len(t.entries) }

// StateOf returns the tracked state of the structure based at base on
// chiplet c, or NotPresent if untracked.
func (t *Table) StateOf(base mem.Addr, c int) State {
	for _, e := range t.entries {
		if e.base == base {
			return e.states[c]
		}
	}
	return NotPresent
}

// RangeOf returns the tracked range set of the structure based at base on
// chiplet c.
func (t *Table) RangeOf(base mem.Addr, c int) mem.RangeSet {
	for _, e := range t.entries {
		if e.base == base {
			return e.ranges[c].Clone()
		}
	}
	return mem.RangeSet{}
}

// OnKernelLaunch runs the table's launch-time algorithm for a kernel
// described by args and returns the synchronization operations that must
// complete before the kernel's WGs dispatch. Flush ops precede invalidate
// ops for the same chiplet.
func (t *Table) OnKernelLaunch(args []ArgView) []Op {
	t.seq++
	args = t.dedupe(args)
	if len(args) > t.cfg.MaxDataStructures {
		args = t.coarsen(args)
	}

	n := t.cfg.Chiplets
	flush := make([]bool, n)
	inval := make([]bool, n)
	var flushRanges, invalRanges []mem.RangeSet
	if t.cfg.RangeOps {
		flushRanges = make([]mem.RangeSet, n)
		invalRanges = make([]mem.RangeSet, n)
	}
	addFlush := func(c int, rs mem.RangeSet) {
		flush[c] = true
		if t.cfg.RangeOps {
			flushRanges[c].AddSet(rs)
		}
	}
	addInval := func(c int, rs mem.RangeSet) {
		inval[c] = true
		if t.cfg.RangeOps {
			invalRanges[c].AddSet(rs)
		}
	}

	// Phase A: detect conflicts between the launching kernel's accesses
	// and the tracked states, using pre-launch states throughout.
	type pending struct {
		e   *entry
		arg *ArgView
	}
	var updates []pending
	for i := range args {
		arg := &args[i]
		e := t.lookup(arg)
		if e != nil {
			// Mark the row as in-use this launch so capacity eviction in
			// Phase C never victimizes a row that is still pending update.
			e.lastUse = t.seq
		}
		for c := 0; c < n; c++ {
			if !arg.accesses(c) {
				continue
			}
			if e != nil {
				for o := 0; o < n; o++ {
					if o == c || e.states[o] == NotPresent {
						continue
					}
					if !arg.Ranges[c].OverlapsSet(e.ranges[o]) {
						continue
					}
					// Lazy release: another chiplet holds the structure
					// Dirty and this kernel (on chiplet c) is about to
					// access it.
					if e.states[o] == Dirty {
						addFlush(o, e.ranges[o])
					}
					// Same-launch conflict: chiplet o also runs this kernel
					// — and caches lines of the structure while doing so —
					// while chiplet c's writes will overwrite lines o may
					// have cached. o's copies are stale the moment the
					// kernel runs, and the post-kernel chiplet vector can
					// only say Dirty (o fills too), so the acquire cannot
					// be deferred. When o's accesses allocate nothing
					// (atomic scatters execute at the ordering point), the
					// acquire stays lazy: the vector records Stale and the
					// invalidation waits for o's next caching access.
					if arg.Mode == kernels.ReadWrite && arg.accesses(o) &&
						!arg.cacheable(o).Empty() {
						addInval(o, e.ranges[o])
					}
				}
				// Lazy acquire: this chiplet's copies are stale.
				if e.states[c] == Stale {
					addInval(c, e.ranges[c])
				}
			}
		}
		updates = append(updates, pending{e: e, arg: arg})
	}

	// Phase A': Valid/flushed copies on non-accessing chiplets become
	// Stale when the kernel writes overlapping ranges elsewhere. (State
	// transition only — no operation; the acquire is deferred until that
	// chiplet next accesses the structure.) Applied after op generation so
	// every decision above used pre-launch states.
	for i := range args {
		arg := &args[i]
		e := t.lookup(arg)
		if e == nil || arg.Mode != kernels.ReadWrite {
			continue
		}
		for c := 0; c < n; c++ {
			if !arg.accesses(c) {
				continue
			}
			for o := 0; o < n; o++ {
				if o == c || !arg.Ranges[c].OverlapsSet(e.ranges[o]) {
					continue
				}
				if e.states[o] == Valid || e.states[o] == Dirty {
					e.states[o] = Stale
				}
			}
		}
	}

	// Phase B: apply the cache-wide side effects of the chosen operations
	// to every table entry. A whole-L2 flush cleans every structure on
	// that chiplet (Dirty -> Valid); an invalidation empties it
	// (-> NotPresent, with dirty data written back by the machine first).
	if !t.cfg.RangeOps {
		for c := 0; c < n; c++ {
			switch {
			case inval[c]:
				for _, e := range t.entries {
					e.states[c] = NotPresent
					e.ranges[c] = mem.RangeSet{}
				}
			case flush[c]:
				for _, e := range t.entries {
					if e.states[c] == Dirty {
						e.states[c] = Valid
					}
				}
			}
		}
	} else {
		for c := 0; c < n; c++ {
			if inval[c] {
				for _, e := range t.entries {
					if !e.ranges[c].Empty() && invalRanges[c].OverlapsSet(e.ranges[c]) {
						e.states[c] = NotPresent
						e.ranges[c] = mem.RangeSet{}
					}
				}
			}
			if flush[c] {
				for _, e := range t.entries {
					if e.states[c] == Dirty && flushRanges[c].OverlapsSet(e.ranges[c]) {
						e.states[c] = Valid
					}
				}
			}
		}
	}

	// Phase C: record the launching kernel's own accesses.
	for _, u := range updates {
		e := u.e
		if e == nil {
			e = t.insert(u.arg, addFlush, addInval)
		}
		e.lastUse = t.seq
		e.mode = u.arg.Mode
		e.full = e.full.Union(u.arg.Full)
		for c := 0; c < n; c++ {
			if !u.arg.accesses(c) {
				continue
			}
			cacheable := u.arg.cacheable(c)
			e.ranges[c].AddSet(cacheable)
			switch {
			case u.arg.Mode == kernels.ReadWrite && !cacheable.Empty():
				e.states[c] = Dirty
			case u.arg.Mode == kernels.ReadWrite:
				// Atomic scatter: the chiplet writes at the ordering point
				// without allocating, so its L2 holds no new dirty data —
				// but any copies it cached earlier are now behind the
				// atomics. Valid degrades to Stale (the deferred acquire);
				// Dirty stays Dirty so a future consumer still triggers
				// the release of genuinely dirty lines.
				if e.states[c] == Valid {
					e.states[c] = Stale
				}
			case e.states[c] == NotPresent || e.states[c] == Stale:
				// A Stale chiplet was just invalidated (Phase A/B), so the
				// fresh reads make it Valid; Dirty stays Dirty (the
				// "stay in Dirty" release elision), Valid stays Valid.
				e.states[c] = Valid
			}
		}
	}

	// Drop rows whose chiplet vector is NotPresent everywhere.
	t.removeEmpty()
	if len(t.entries) > t.PeakEntries {
		t.PeakEntries = len(t.entries)
	}

	return t.buildOps(flush, inval, flushRanges, invalRanges)
}

// buildOps materializes the op list, flushes first.
func (t *Table) buildOps(flush, inval []bool, flushRanges, invalRanges []mem.RangeSet) []Op {
	var ops []Op
	for c := range flush {
		if flush[c] && !inval[c] {
			// An invalidation subsumes the flush: the machine writes dirty
			// lines back before dropping them.
			op := Op{Chiplet: c, Flush: true}
			if t.cfg.RangeOps {
				op.Ranges = flushRanges[c]
			}
			ops = append(ops, op)
			t.FlushesIssue++
		}
	}
	for c := range inval {
		if inval[c] {
			op := Op{Chiplet: c}
			if t.cfg.RangeOps {
				rs := invalRanges[c].Clone()
				if flush[c] {
					rs.AddSet(flushRanges[c])
				}
				op.Ranges = rs
			}
			ops = append(ops, op)
			t.InvalsIssue++
			if flush[c] {
				t.FlushesIssue++
			}
		}
	}
	return ops
}

// lookup finds the entry tracking arg's structure. Entries overlapping the
// argument (possible after coarsening) are merged first so each structure
// has a single row.
func (t *Table) lookup(arg *ArgView) *entry {
	var found []*entry
	for _, e := range t.entries {
		if e.full.Overlaps(arg.Full) {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return nil
	case 1:
		return found[0]
	}
	// Merge overlapping rows conservatively (most severe state wins).
	dst := found[0]
	for _, e := range found[1:] {
		dst.full = dst.full.Union(e.full)
		if e.mode == kernels.ReadWrite {
			dst.mode = kernels.ReadWrite
		}
		for c := range dst.states {
			dst.states[c] = mergeState(dst.states[c], e.states[c])
			dst.ranges[c].AddSet(e.ranges[c])
		}
		if e.lastUse > dst.lastUse {
			dst.lastUse = e.lastUse
		}
		t.remove(e)
	}
	return dst
}

// mergeState combines two tracked states conservatively. Dirty dominates
// (unflushed data must not be lost), then Stale, then Valid.
func mergeState(a, b State) State {
	rank := func(s State) int {
		switch s {
		case Dirty:
			return 3
		case Stale:
			return 2
		case Valid:
			return 1
		case NotPresent:
			return 0
		}
		return 0
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

// insert adds a row for arg, evicting the LRU row if the table is full. An
// evicted row's chiplets are synchronized conservatively — every copy the
// victim tracked is invalidated (the machine writes Dirty lines back before
// dropping them, so the invalidation subsumes the flush) — because once the
// row is gone the table can no longer order future accesses against it. A
// flush alone would not do: the victim's clean copies would outlive the row,
// and a later remote write could stale them with no row left to trigger the
// deferred acquire. The requested operations flow through the same
// addFlush/addInval accumulators as Phases A and B, so buildOps emits and
// accounts them exactly once, deduplicated against the boundary's other ops.
func (t *Table) insert(arg *ArgView, addFlush, addInval func(int, mem.RangeSet)) *entry {
	for len(t.entries) >= t.cfg.MaxEntries {
		var victim *entry
		for _, e := range t.entries {
			if e.lastUse == t.seq {
				continue // row still pending update this launch
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			// Every row belongs to the current launch (only possible with
			// tiny test configurations); tolerate a transient overflow.
			break
		}
		for c, s := range victim.states {
			switch s {
			case Dirty:
				addFlush(c, victim.ranges[c])
				addInval(c, victim.ranges[c])
			case Valid, Stale:
				addInval(c, victim.ranges[c])
			case NotPresent:
				// No copy tracked on this chiplet; nothing to synchronize.
			}
		}
		t.remove(victim)
		t.Evictions++
	}
	n := t.cfg.Chiplets
	e := &entry{
		base:   arg.Base,
		full:   arg.Full,
		mode:   arg.Mode,
		ranges: make([]mem.RangeSet, n),
		states: make([]State, n),
	}
	t.entries = append(t.entries, e)
	return e
}

func (t *Table) remove(victim *entry) {
	for i, e := range t.entries {
		if e == victim {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return
		}
	}
}

func (t *Table) removeEmpty() {
	out := t.entries[:0]
	for _, e := range t.entries {
		if !e.allNotPresent() {
			out = append(out, e)
		}
	}
	t.entries = out
}

// dedupe merges argument views that alias the same structure (same base),
// taking the conservative mode and the union of ranges.
func (t *Table) dedupe(args []ArgView) []ArgView {
	out := args[:0]
	byBase := map[mem.Addr]int{}
	for _, a := range args {
		if i, ok := byBase[a.Base]; ok {
			dst := &out[i]
			if a.Mode == kernels.ReadWrite {
				dst.Mode = kernels.ReadWrite
			}
			dst.Full = dst.Full.Union(a.Full)
			for c := range dst.Ranges {
				// The view's sets are value copies of the launch's long-lived
				// annotation sets; clone before merging in place so the merge
				// never writes through a shared spill slice.
				dst.Ranges[c] = dst.Ranges[c].Clone()
				dst.Ranges[c].AddSet(a.Ranges[c])
				if dst.Cacheable != nil && a.Cacheable != nil {
					dst.Cacheable[c] = dst.Cacheable[c].Clone()
					dst.Cacheable[c].AddSet(a.Cacheable[c])
				} else if dst.Cacheable != nil {
					// Partner assumes everything cacheable; widen.
					dst.Cacheable = nil
				}
			}
			continue
		}
		byBase[a.Base] = len(out)
		out = append(out, a)
	}
	return out
}

// coarsen reduces the argument list to the per-kernel tracking limit by
// repeatedly combining the pair of structures closest to each other in
// memory (contiguous structures are distance zero), exactly as Section
// III-B describes. The combined view covers both structures, every chiplet
// either accessed, and the more conservative mode — which may synchronize
// more than necessary but never less.
func (t *Table) coarsen(args []ArgView) []ArgView {
	t.Coarsenings++
	sort.Slice(args, func(i, j int) bool { return args[i].Full.Lo < args[j].Full.Lo })
	for len(args) > t.cfg.MaxDataStructures {
		// Find the adjacent (in address order) pair with the smallest gap.
		best, bestGap := 0, ^uint64(0)
		for i := 0; i+1 < len(args); i++ {
			gap := uint64(0)
			if args[i+1].Full.Lo > args[i].Full.Hi {
				gap = uint64(args[i+1].Full.Lo - args[i].Full.Hi)
			}
			if gap < bestGap {
				best, bestGap = i, gap
			}
		}
		a, b := &args[best], &args[best+1]
		merged := ArgView{
			Base: a.Base,
			Full: a.Full.Union(b.Full),
			Mode: a.Mode,
		}
		if b.Mode == kernels.ReadWrite {
			merged.Mode = kernels.ReadWrite
		}
		merged.Ranges = make([]mem.RangeSet, len(a.Ranges))
		for c := range merged.Ranges {
			merged.Ranges[c] = a.Ranges[c].Clone()
			merged.Ranges[c].AddSet(b.Ranges[c])
		}
		if a.Cacheable != nil && b.Cacheable != nil {
			merged.Cacheable = make([]mem.RangeSet, len(a.Cacheable))
			for c := range merged.Cacheable {
				merged.Cacheable[c] = a.Cacheable[c].Clone()
				merged.Cacheable[c].AddSet(b.Cacheable[c])
			}
		}
		args[best] = merged
		args = append(args[:best+1], args[best+2:]...)
	}
	return args
}

// FinalizeOps returns the releases needed to push all outstanding dirty
// data to the ordering point at program end, and clears the table.
func (t *Table) FinalizeOps() []Op {
	n := t.cfg.Chiplets
	need := make([]bool, n)
	for _, e := range t.entries {
		for c, s := range e.states {
			if s == Dirty {
				need[c] = true
			}
		}
	}
	var ops []Op
	for c := 0; c < n; c++ {
		if need[c] {
			ops = append(ops, Op{Chiplet: c, Flush: true})
			t.FlushesIssue++
		}
	}
	t.entries = nil
	return ops
}

// DegradeChiplet conservatively abandons the table's belief about chiplet
// c's L2 after the CP watchdog gave up on a targeted synchronization there:
// the reliable fallback (a full flush+invalidate, performed by the caller)
// leaves c's cache empty, but the launching kernel is about to refill it,
// and the table has already recorded those fills. Every tracked row with any
// presence on c is therefore marked Dirty over the structure's full extent —
// the most conservative state: a future consumer forces a release of c, and
// writes elsewhere turn it Stale so c re-acquires before reusing the data.
// Elision quality for c degrades to baseline until the marks wash out;
// correctness only ever gains synchronization.
func (t *Table) DegradeChiplet(c int) {
	if c < 0 || c >= t.cfg.Chiplets {
		return
	}
	for _, e := range t.entries {
		if e.states[c] == NotPresent {
			continue
		}
		e.states[c] = Dirty
		e.ranges[c] = mem.NewRangeSet(e.full)
	}
	t.Degradations++
}

// ParityReset handles a detected SRAM parity error: no table state can be
// trusted, so it returns exactly the baseline boundary — a full L2 flush and
// invalidate on every chiplet — and empties the table. Call it BEFORE
// OnKernelLaunch for the boundary so the launching kernel's accesses are
// recorded into the fresh table.
func (t *Table) ParityReset() []Op {
	ops := make([]Op, 0, 2*t.cfg.Chiplets)
	for c := 0; c < t.cfg.Chiplets; c++ {
		ops = append(ops, Op{Chiplet: c, Flush: true}, Op{Chiplet: c})
		t.FlushesIssue++
		t.InvalsIssue++
	}
	t.entries = nil
	t.ParityResets++
	return ops
}

// String renders the table for diagnostics.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ChipletCoherenceTable(%d/%d entries)\n", len(t.entries), t.cfg.MaxEntries)
	for _, e := range t.entries {
		fmt.Fprintf(&b, "  %#x %s mode=%s", e.base, e.full, e.mode)
		for c, s := range e.states {
			fmt.Fprintf(&b, " c%d=%s", c, s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
