package mem

import "fmt"

// Cache is a set-associative, LRU-replaced cache model holding line
// addresses and the data versions they carry. It is policy-free: the
// coherence protocol composes Read/Write/Fill/Flush/Invalidate primitives
// into write-back, write-through, and forwarding behaviors.
//
// Within each set, ways are kept in LRU order: index 0 is the most recently
// used line and the last valid index is the eviction victim.
//
// Two representation choices make the whole-cache maintenance operations the
// protocols issue at every kernel boundary cheap:
//
//   - Validity is an epoch: a way is valid iff its epoch equals the cache's.
//     InvalidateAll is then O(1) — bump the epoch — instead of a memclr of
//     the whole way array (the epoch is 16 bits; on wrap the array really is
//     cleared once).
//   - A per-set dirty bitmap records which sets may hold dirty lines, so
//     FlushAll and large FlushRanges walk only those sets (in ascending set
//     order, preserving the exact commit order of the full walk) instead of
//     every tag in the cache.
type Cache struct {
	name      string
	lineShift uint
	numSets   uint64
	assoc     int
	setsPow2  bool
	sets      []way // numSets * assoc, flattened
	epoch     uint16

	// dirtySets has one bit per set, set when a way in the set becomes
	// dirty. Bits are cleared when a flush walk cleans the set; a stale set
	// bit (all its dirty lines invalidated or cleaned individually) only
	// costs that walk one wasted scan. For caches of up to
	// 64*len(dirtyInline) sets (every per-CU L1) it aliases dirtyInline,
	// avoiding a second allocation per cache; Cache is never copied by
	// value, so the self-reference is safe.
	dirtySets   []uint64
	dirtyInline [4]uint64

	validLines int
	dirtyLines int

	// missLine is the line the last Read or Write missed, at epoch
	// missEpoch (0: none, or a Fill since). Only Fill makes a line present,
	// so until the next Fill missLine is known absent, and a Fill of it
	// skips its presence scan.
	missLine  Addr
	missEpoch uint16
}

type way struct {
	tag   Addr   // line address (low bits zero)
	ver   uint32 // data version carried by the line
	epoch uint16 // valid iff equal to the cache's epoch (0 is never current)
	dirty bool
}

// EvictInfo describes a line displaced by a Fill.
type EvictInfo struct {
	Evicted bool
	Line    Addr
	Ver     uint32
	Dirty   bool
}

// NewCache builds a cache of size bytes with the given associativity and
// line size. size must be a multiple of assoc*lineSize. Geometry violations
// return an error wrapping ErrGeometry.
func NewCache(name string, size, assoc, lineSize int) (*Cache, error) {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("%w: cache %s dimensions must be positive (size=%d assoc=%d lineSize=%d)",
			ErrGeometry, name, size, assoc, lineSize)
	}
	if size%(assoc*lineSize) != 0 {
		return nil, fmt.Errorf("%w: cache %s size %d is not a multiple of assoc*lineSize (%d*%d)",
			ErrGeometry, name, size, assoc, lineSize)
	}
	shift, err := log2(lineSize, 16)
	if err != nil {
		return nil, fmt.Errorf("%w: cache %s line size %d is not a power of two <= 64 KiB",
			ErrGeometry, name, lineSize)
	}
	numSets := uint64(size / (assoc * lineSize))
	c := &Cache{
		name:      name,
		lineShift: shift,
		numSets:   numSets,
		assoc:     assoc,
		setsPow2:  numSets&(numSets-1) == 0,
		sets:      make([]way, numSets*uint64(assoc)),
		epoch:     1,
	}
	if words := (numSets + 63) / 64; words <= uint64(len(c.dirtyInline)) {
		c.dirtySets = c.dirtyInline[:words]
	} else {
		c.dirtySets = make([]uint64, words)
	}
	return c, nil
}

// NewCacheArray builds count caches of identical geometry sharing a single
// way-array allocation. Machines build hundreds of per-CU L1s; allocating
// them individually costs two allocations per cache, which dominates
// machine-construction allocation counts. The returned slice never moves,
// so taking the address of an element is safe.
func NewCacheArray(name string, count, size, assoc, lineSize int) ([]Cache, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: cache %s array count %d must be positive", ErrGeometry, name, count)
	}
	proto, err := NewCache(name, size, assoc, lineSize)
	if err != nil {
		return nil, err
	}
	lines := proto.numSets * uint64(proto.assoc)
	backing := make([]way, lines*uint64(count))
	words := (proto.numSets + 63) / 64
	arr := make([]Cache, count)
	for i := range arr {
		arr[i] = *proto
		arr[i].sets = backing[uint64(i)*lines : uint64(i+1)*lines : uint64(i+1)*lines]
		if words <= uint64(len(arr[i].dirtyInline)) {
			arr[i].dirtySets = arr[i].dirtyInline[:words]
		} else {
			arr[i].dirtySets = make([]uint64, words)
		}
	}
	return arr, nil
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.numSets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return int(c.numSets) * c.assoc }

// ValidLines returns the number of valid lines currently cached.
func (c *Cache) ValidLines() int { return c.validLines }

// DirtyLines returns the number of dirty lines currently cached.
func (c *Cache) DirtyLines() int { return c.dirtyLines }

//cpelide:noalloc
func (c *Cache) setIndex(line Addr) uint64 {
	idx := uint64(line) >> c.lineShift
	if c.setsPow2 {
		return idx & (c.numSets - 1)
	}
	return idx % c.numSets
}

// set returns the ways of the set holding line.
//
//cpelide:noalloc
func (c *Cache) set(line Addr) []way {
	s := c.setIndex(line) * uint64(c.assoc)
	return c.sets[s : s+uint64(c.assoc)]
}

// setWithIndex returns the ways of the set holding line plus the set index,
// for callers that also maintain the dirty bitmap.
//
//cpelide:noalloc
func (c *Cache) setWithIndex(line Addr) ([]way, uint64) {
	si := c.setIndex(line)
	s := si * uint64(c.assoc)
	return c.sets[s : s+uint64(c.assoc)], si
}

//cpelide:noalloc
func (c *Cache) markDirtySet(si uint64) {
	c.dirtySets[si>>6] |= 1 << (si & 63)
}

// moveToFront promotes ways[i] to MRU position.
//
//cpelide:noalloc
func moveToFront(ways []way, i int) {
	if i == 0 {
		return
	}
	w := ways[i]
	copy(ways[1:i+1], ways[:i])
	ways[0] = w
}

// Read looks up line. On a hit it returns the cached version, promotes the
// line to MRU, and reports hit=true. It never allocates.
//
//cpelide:noalloc
func (c *Cache) Read(line Addr) (ver uint32, hit bool) {
	ways := c.set(line)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == line {
			moveToFront(ways, i)
			return ways[0].ver, true
		}
	}
	c.missLine, c.missEpoch = line, c.epoch
	return 0, false
}

// Peek reports whether line is cached, without disturbing LRU order.
//
//cpelide:noalloc
func (c *Cache) Peek(line Addr) (ver uint32, dirty, hit bool) {
	ways := c.set(line)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == line {
			return ways[i].ver, ways[i].dirty, true
		}
	}
	return 0, false, false
}

// Write updates line in place with the new version, marking it dirty
// (write-back semantics), and reports whether the line was present. On a
// miss it does nothing; the caller decides whether to write-allocate via
// Fill.
//
//cpelide:noalloc
func (c *Cache) Write(line Addr, ver uint32) bool {
	ways, si := c.setWithIndex(line)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == line {
			if !ways[i].dirty {
				c.dirtyLines++
				c.markDirtySet(si)
			}
			moveToFront(ways, i)
			ways[0].ver = ver
			ways[0].dirty = true
			return true
		}
	}
	c.missLine, c.missEpoch = line, c.epoch
	return false
}

// UpdateClean refreshes line's version without marking it dirty, modeling a
// write-through store updating a cached copy whose data has already been
// committed below. It reports whether the line was present.
//
//cpelide:noalloc
func (c *Cache) UpdateClean(line Addr, ver uint32) bool {
	ways := c.set(line)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == line {
			moveToFront(ways, i)
			if ways[0].dirty {
				ways[0].dirty = false
				c.dirtyLines--
			}
			ways[0].ver = ver
			return true
		}
	}
	return false
}

// Fill installs line with the given version and dirty state, evicting the
// LRU way if the set is full. Filling a line already present updates it in
// place instead.
//
//cpelide:noalloc
func (c *Cache) Fill(line Addr, ver uint32, dirty bool) EvictInfo {
	ways, si := c.setWithIndex(line)
	// Already present: update in place. The line the last Read or Write
	// missed is still absent, so its Fill skips this scan.
	if line != c.missLine || c.missEpoch != c.epoch {
		for i := range ways {
			if ways[i].epoch == c.epoch && ways[i].tag == line {
				moveToFront(ways, i)
				if dirty && !ways[0].dirty {
					c.dirtyLines++
					c.markDirtySet(si)
				}
				if !dirty && ways[0].dirty {
					c.dirtyLines--
				}
				ways[0].ver = ver
				ways[0].dirty = dirty
				return EvictInfo{}
			}
		}
	}
	c.missEpoch = 0
	// Prefer an invalid way.
	victim := -1
	for i := range ways {
		if ways[i].epoch != c.epoch {
			victim = i
			break
		}
	}
	var ev EvictInfo
	if victim < 0 {
		victim = len(ways) - 1
		w := ways[victim]
		ev = EvictInfo{Evicted: true, Line: w.tag, Ver: w.ver, Dirty: w.dirty}
		if w.dirty {
			c.dirtyLines--
		}
		c.validLines--
	}
	ways[victim] = way{tag: line, ver: ver, epoch: c.epoch, dirty: dirty}
	c.validLines++
	if dirty {
		c.dirtyLines++
		c.markDirtySet(si)
	}
	moveToFront(ways, victim)
	return ev
}

// Invalidate drops line if present and reports whether it was cached and
// whether it was dirty (the dirty data is discarded).
//
//cpelide:noalloc
func (c *Cache) Invalidate(line Addr) (wasDirty, wasPresent bool) {
	ways := c.set(line)
	for i := range ways {
		if ways[i].epoch == c.epoch && ways[i].tag == line {
			wasDirty = ways[i].dirty
			if wasDirty {
				c.dirtyLines--
			}
			c.validLines--
			ways[i] = way{}
			return wasDirty, true
		}
	}
	return false, false
}

// InvalidateAll drops every line and returns the number invalidated.
// Dirty data is discarded; callers needing write-back must FlushAll first.
// The work is O(1): validity is epoch-based, so bumping the epoch stales
// every way at once (the way array is physically cleared only when the
// 16-bit epoch wraps).
//
//cpelide:noalloc
func (c *Cache) InvalidateAll() int {
	n := c.validLines
	if c.epoch == ^uint16(0) {
		for i := range c.sets {
			c.sets[i] = way{}
		}
		c.epoch = 1
		c.missEpoch = 0
	} else {
		c.epoch++
	}
	for i := range c.dirtySets {
		c.dirtySets[i] = 0
	}
	c.validLines = 0
	c.dirtyLines = 0
	return n
}

// InvalidateRanges drops every valid line that overlaps rs and returns the
// number invalidated. Small ranges are handled with per-line set probes;
// large ones with a full tag walk.
func (c *Cache) InvalidateRanges(rs RangeSet) int {
	if c.rangeSmall(rs) {
		n := 0
		c.eachLine(rs, func(line Addr) {
			if _, present := c.Invalidate(line); present {
				n++
			}
		})
		return n
	}
	n := 0
	for i := range c.sets {
		w := &c.sets[i]
		if w.epoch == c.epoch && c.overlaps(rs, w.tag) {
			if w.dirty {
				c.dirtyLines--
			}
			c.validLines--
			*w = way{}
			n++
		}
	}
	return n
}

// rangeSmall reports whether probing rs line by line beats walking every
// tag in the cache.
func (c *Cache) rangeSmall(rs RangeSet) bool {
	lines := rs.Size() >> c.lineShift
	return lines < uint64(len(c.sets))/uint64(c.assoc)
}

// overlaps reports whether the line at tag shares a byte with rs: the lines
// eachLine visits.
func (c *Cache) overlaps(rs RangeSet, tag Addr) bool {
	return rs.Overlaps(Range{Lo: tag, Hi: tag + 1<<c.lineShift})
}

// eachLine invokes f for every line that overlaps rs.
func (c *Cache) eachLine(rs RangeSet, f func(Addr)) {
	step := Addr(1) << c.lineShift
	for i, n := 0, rs.Len(); i < n; i++ {
		r := rs.At(i)
		for line := r.Lo &^ (step - 1); line < r.Hi; line += step {
			f(line)
		}
	}
}

// flushSet writes back the dirty lines of set si through commit, in way
// order, and returns how many it cleaned.
func (c *Cache) flushSet(si uint64, commit func(line Addr, ver uint32)) int {
	n := 0
	base := si * uint64(c.assoc)
	ways := c.sets[base : base+uint64(c.assoc)]
	for i := range ways {
		w := &ways[i]
		if w.epoch == c.epoch && w.dirty {
			commit(w.tag, w.ver)
			w.dirty = false
			c.dirtyLines--
			n++
		}
	}
	return n
}

// FlushAll writes back every dirty line through commit and marks it clean,
// returning the number of lines written back. Clean and invalid lines are
// untouched; the cache retains clean copies, matching the baseline protocol
// in which a flushed line transitions to a shared/valid state. Only sets
// flagged in the dirty bitmap are walked, in ascending set order — the same
// commit order as a full tag walk.
func (c *Cache) FlushAll(commit func(line Addr, ver uint32)) int {
	if c.dirtyLines == 0 {
		return 0
	}
	n := 0
	for wi, word := range c.dirtySets {
		if word == 0 {
			continue
		}
		for b := uint64(0); word != 0; word >>= 1 {
			if word&1 != 0 {
				n += c.flushSet(uint64(wi)<<6+b, commit)
			}
			b++
		}
		c.dirtySets[wi] = 0
	}
	return n
}

// FlushRanges writes back dirty lines that overlap rs, marking them clean,
// and returns the number written back.
func (c *Cache) FlushRanges(rs RangeSet, commit func(line Addr, ver uint32)) int {
	if c.dirtyLines == 0 {
		return 0
	}
	if c.rangeSmall(rs) {
		n := 0
		c.eachLine(rs, func(line Addr) {
			ways := c.set(line)
			for i := range ways {
				if ways[i].epoch == c.epoch && ways[i].tag == line && ways[i].dirty {
					commit(line, ways[i].ver)
					ways[i].dirty = false
					c.dirtyLines--
					n++
				}
			}
		})
		return n
	}
	n := 0
	for wi, word := range c.dirtySets {
		for b := uint64(0); word != 0; word >>= 1 {
			if word&1 != 0 {
				si := uint64(wi)<<6 + b
				base := si * uint64(c.assoc)
				ways := c.sets[base : base+uint64(c.assoc)]
				remaining := false
				for i := range ways {
					w := &ways[i]
					if w.epoch != c.epoch || !w.dirty {
						continue
					}
					if c.overlaps(rs, w.tag) {
						commit(w.tag, w.ver)
						w.dirty = false
						c.dirtyLines--
						n++
					} else {
						remaining = true
					}
				}
				if !remaining {
					c.dirtySets[wi] &^= 1 << b
				}
			}
			b++
		}
	}
	return n
}

// ValidInRanges counts valid lines that overlap rs.
func (c *Cache) ValidInRanges(rs RangeSet) int {
	n := 0
	for i := range c.sets {
		if c.sets[i].epoch == c.epoch && c.overlaps(rs, c.sets[i].tag) {
			n++
		}
	}
	return n
}
