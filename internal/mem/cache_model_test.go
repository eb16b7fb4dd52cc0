package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// modelLine is one valid line of the reference cache.
type modelLine struct {
	tag   Addr
	ver   uint32
	dirty bool
}

// modelCache is the naive reference implementation of Cache: per set, a
// list of valid lines, most recently used first. Every Cache operation has
// an obvious counterpart here, so disagreement is always a Cache bug.
type modelCache struct {
	sets  map[uint64][]modelLine
	nsets uint64
	assoc int
}

func (m *modelCache) setOf(line Addr) uint64 { return uint64(line) / 64 % m.nsets }

// find returns line's index in its set, or -1.
func (m *modelCache) find(line Addr) (uint64, int) {
	s := m.setOf(line)
	for i, l := range m.sets[s] {
		if l.tag == line {
			return s, i
		}
	}
	return s, -1
}

// touch moves way i of set s to the front and returns it.
func (m *modelCache) touch(s uint64, i int) *modelLine {
	ways := m.sets[s]
	l := ways[i]
	copy(ways[1:i+1], ways[:i])
	ways[0] = l
	return &ways[0]
}

func (m *modelCache) read(line Addr) (uint32, bool) {
	if s, i := m.find(line); i >= 0 {
		return m.touch(s, i).ver, true
	}
	return 0, false
}

func (m *modelCache) write(line Addr, ver uint32, dirty bool) bool {
	s, i := m.find(line)
	if i < 0 {
		return false
	}
	l := m.touch(s, i)
	l.ver, l.dirty = ver, dirty
	return true
}

func (m *modelCache) fill(line Addr, ver uint32, dirty bool) EvictInfo {
	if m.write(line, ver, dirty) {
		return EvictInfo{}
	}
	s := m.setOf(line)
	ways := m.sets[s]
	var ev EvictInfo
	if len(ways) == m.assoc {
		v := ways[len(ways)-1]
		ev = EvictInfo{Evicted: true, Line: v.tag, Ver: v.ver, Dirty: v.dirty}
		ways = ways[:len(ways)-1]
	}
	m.sets[s] = append([]modelLine{{tag: line, ver: ver, dirty: dirty}}, ways...)
	return ev
}

// drop removes every line keep rejects and returns how many it removed.
func (m *modelCache) drop(keep func(modelLine) bool) int {
	n := 0
	for s, ways := range m.sets {
		kept := ways[:0]
		for _, l := range ways {
			if keep(l) {
				kept = append(kept, l)
			} else {
				n++
			}
		}
		m.sets[s] = kept
	}
	return n
}

// flush cleans the dirty lines in rs in ascending set order, most recently
// used first within a set — the commit order of Cache.FlushAll.
func (m *modelCache) flush(rs RangeSet) []modelLine {
	var out []modelLine
	for s := uint64(0); s < m.nsets; s++ {
		for i := range m.sets[s] {
			if l := &m.sets[s][i]; l.dirty && lineOverlaps(rs, l.tag) {
				out = append(out, *l)
				l.dirty = false
			}
		}
	}
	return out
}

// lineOverlaps reports whether the 64-byte line at tag shares a byte with
// rs: a range operation covers every line it touches.
func lineOverlaps(rs RangeSet, tag Addr) bool {
	return rs.Overlaps(Range{Lo: tag, Hi: tag + 64})
}

func (m *modelCache) counts() (valid, dirty int) {
	for _, ways := range m.sets {
		for _, l := range ways {
			valid++
			if l.dirty {
				dirty++
			}
		}
	}
	return valid, dirty
}

// checkCacheModel compares every line of the universe and the line counts.
func checkCacheModel(t *testing.T, tag string, c *Cache, m *modelCache, lines int) {
	t.Helper()
	for i := 0; i < lines; i++ {
		line := Addr(i * 64)
		ver, dirty, hit := c.Peek(line)
		var want modelLine
		s, j := m.find(line)
		if j >= 0 {
			want = m.sets[s][j]
		}
		if hit != (j >= 0) || ver != want.ver || dirty != want.dirty {
			t.Fatalf("%s: Peek(%#x) = (%d, %v, %v), model (%d, %v, %v)",
				tag, line, ver, dirty, hit, want.ver, want.dirty, j >= 0)
		}
	}
	if v, d := m.counts(); c.ValidLines() != v || c.DirtyLines() != d {
		t.Fatalf("%s: valid/dirty = %d/%d, model %d/%d", tag, c.ValidLines(), c.DirtyLines(), v, d)
	}
}

// TestCacheModel drives random operation sequences over a small line
// universe against the list model, on pow2 and non-pow2 set counts. Reads
// and writes that miss are often followed by a Fill of the same line, with
// or without a Fill of another line in between, so the Fill-after-miss
// shortcut is exercised in both shapes; runs of InvalidateAll cross the
// 16-bit epoch wrap.
func TestCacheModel(t *testing.T) {
	const lines = 40
	rnd := rand.New(rand.NewSource(20261018))
	randLine := func() Addr { return Addr(rnd.Intn(lines) * 64) }
	// Neither range starts nor ends need be line-aligned.
	randRanges := func() RangeSet {
		var rs RangeSet
		for n := 1 + rnd.Intn(3); n > 0; n-- {
			lo := Addr(rnd.Intn(lines * 64))
			rs.Add(Range{Lo: lo, Hi: lo + Addr(1+rnd.Intn(lines*64/2))})
		}
		return rs
	}
	wraps := 0
	for trial := 0; trial < 200; trial++ {
		nsets, assoc := 1+rnd.Intn(6), 1+rnd.Intn(4)
		c, err := NewCache("model", nsets*assoc*64, assoc, 64)
		if err != nil {
			t.Fatal(err)
		}
		m := &modelCache{sets: map[uint64][]modelLine{}, nsets: uint64(nsets), assoc: assoc}
		ver := uint32(0)
		for op := 0; op < 200; op++ {
			ver++
			line := randLine()
			var tag string
			switch rnd.Intn(12) {
			case 0, 1, 2: // Read, then on a miss usually Fill it
				tag = "read"
				gv, gh := c.Read(line)
				wv, wh := m.read(line)
				if gv != wv || gh != wh {
					t.Fatalf("trial %d op %d: Read(%#x) = (%d, %v), model (%d, %v)", trial, op, line, gv, gh, wv, wh)
				}
				if gh || rnd.Intn(4) == 0 {
					break
				}
				if rnd.Intn(2) == 0 {
					other := randLine()
					if g, w := c.Fill(other, ver, false), m.fill(other, ver, false); g != w {
						t.Fatalf("trial %d op %d: Fill(%#x) between = %+v, model %+v", trial, op, other, g, w)
					}
				}
				fallthrough
			case 3: // Fill
				tag = "fill"
				dirty := rnd.Intn(2) == 0
				if g, w := c.Fill(line, ver, dirty), m.fill(line, ver, dirty); g != w {
					t.Fatalf("trial %d op %d: Fill(%#x) = %+v, model %+v", trial, op, line, g, w)
				}
			case 4, 5: // Write, then on a miss usually write-allocate
				tag = "write"
				if g, w := c.Write(line, ver), m.write(line, ver, true); g != w {
					t.Fatalf("trial %d op %d: Write(%#x) = %v, model %v", trial, op, line, g, w)
				} else if !g && rnd.Intn(4) != 0 {
					c.Fill(line, ver, true)
					m.fill(line, ver, true)
				}
			case 6:
				tag = "update-clean"
				if g, w := c.UpdateClean(line, ver), m.write(line, ver, false); g != w {
					t.Fatalf("trial %d op %d: UpdateClean(%#x) = %v, model %v", trial, op, line, g, w)
				}
			case 7:
				tag = "invalidate"
				s, i := m.find(line)
				wantDirty := i >= 0 && m.sets[s][i].dirty
				gd, gp := c.Invalidate(line)
				m.drop(func(l modelLine) bool { return l.tag != line })
				if gd != wantDirty || gp != (i >= 0) {
					t.Fatalf("trial %d op %d: Invalidate(%#x) = (%v, %v), model (%v, %v)", trial, op, line, gd, gp, wantDirty, i >= 0)
				}
			case 8:
				tag = "invalidate-ranges"
				rs := randRanges()
				if g, w := c.InvalidateRanges(rs), m.drop(func(l modelLine) bool { return !lineOverlaps(rs, l.tag) }); g != w {
					t.Fatalf("trial %d op %d: InvalidateRanges(%v) = %d, model %d", trial, op, rs, g, w)
				}
			case 9:
				tag = "invalidate-all"
				n := 1
				if rnd.Intn(16) == 0 { // run the epoch up to and past its wrap
					n = int(^uint16(0)-c.epoch) + 1 + rnd.Intn(3)
					wraps++
				}
				w := m.drop(func(modelLine) bool { return false })
				for i := 0; i < n; i++ {
					if g := c.InvalidateAll(); g != w {
						t.Fatalf("trial %d op %d: InvalidateAll = %d, model %d", trial, op, g, w)
					}
					w = 0
				}
			case 10:
				tag = "flush-all"
				var got []modelLine
				n := c.FlushAll(func(l Addr, v uint32) { got = append(got, modelLine{tag: l, ver: v, dirty: true}) })
				want := m.flush(NewRangeSet(Range{Lo: 0, Hi: lines * 64}))
				if n != len(got) || !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: FlushAll committed %v (n=%d), model %v", trial, op, got, n, want)
				}
			case 11:
				// FlushRanges commits in line order on its small-range path,
				// so only the committed set is compared.
				tag = "flush-ranges"
				rs := randRanges()
				var got []modelLine
				n := c.FlushRanges(rs, func(l Addr, v uint32) { got = append(got, modelLine{tag: l, ver: v, dirty: true}) })
				want := m.flush(rs)
				byTag := func(a, b modelLine) int { return int(a.tag) - int(b.tag) }
				slices.SortFunc(got, byTag)
				slices.SortFunc(want, byTag)
				if n != len(got) || !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: FlushRanges(%v) committed %v (n=%d), model %v", trial, op, rs, got, n, want)
				}
			}
			checkCacheModel(t, tag, c, m, lines)
		}
	}
	if wraps == 0 {
		t.Fatal("no trial wrapped the epoch")
	}
}
