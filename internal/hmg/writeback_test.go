package hmg

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// --- HMG-WB parity with the directory state -------------------------------
//
// The write-back ablation is the least-exercised protocol path; these
// table-driven scenarios pin its invariants against the internal directory
// and L2 state rather than end-to-end counters:
//
//   - dirty data lives only in the line's HOME L2 (the sender keeps a clean
//     copy), so one flush point per line exists;
//   - every non-home chiplet holding an L2 copy is registered as a sharer
//     in the home directory (the directory may over-approximate after
//     silent L2 evictions, never under-approximate);
//   - a store clears all other sharers, in directory and L2s both;
//   - the finalize plan's releases commit every dirty line, leaving
//     committed == latest for the host.

// step is one access in a scenario: chiplet accesses the page homed on
// homeChiplet (0 = the "local" page, 1 = the "remote" page).
type step struct {
	chiplet int
	page    int // 0 or 1; see place()
	write   bool
	atomic  bool
}

func TestWriteBackDirtyOnlyAtHome(t *testing.T) {
	scenarios := []struct {
		name  string
		steps []step
	}{
		{"local store", []step{{chiplet: 0, page: 0, write: true}}},
		{"remote store", []step{{chiplet: 2, page: 0, write: true}}},
		{"remote store then reads", []step{
			{chiplet: 2, page: 0, write: true},
			{chiplet: 1, page: 0},
			{chiplet: 3, page: 0},
		}},
		{"two pages two writers", []step{
			{chiplet: 3, page: 0, write: true},
			{chiplet: 0, page: 1, write: true},
		}},
		{"atomic lands dirty at home", []step{
			{chiplet: 2, page: 0, write: true, atomic: true},
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p, m, addrs := wbSetup(t)
			for _, s := range sc.steps {
				p.Access(s.chiplet, 0, addrs[s.page], s.write, s.atomic)
			}
			for _, a := range addrs {
				home := m.Pages.HomeIfPlaced(a)
				for c := 0; c < m.Cfg.NumChiplets; c++ {
					_, dirty, hit := m.L2[c].Peek(a)
					if dirty && c != home {
						t.Errorf("line %#x dirty in non-home L2 %d (home %d)", a, c, home)
					}
					_ = hit
				}
			}
		})
	}
}

func TestWriteBackDirectoryMirrorsSharers(t *testing.T) {
	scenarios := []struct {
		name  string
		steps []step
	}{
		{"single remote reader", []step{{chiplet: 2, page: 0}}},
		{"three remote readers", []step{
			{chiplet: 1, page: 0}, {chiplet: 2, page: 0}, {chiplet: 3, page: 0},
		}},
		{"remote writer registers too", []step{{chiplet: 2, page: 0, write: true}}},
		{"mixed pages", []step{
			{chiplet: 1, page: 0}, {chiplet: 0, page: 1}, {chiplet: 2, page: 1},
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p, m, addrs := wbSetup(t)
			for _, s := range sc.steps {
				p.Access(s.chiplet, 0, addrs[s.page], s.write, s.atomic)
			}
			for _, a := range addrs {
				home := m.Pages.HomeIfPlaced(a)
				mask := p.dirs[home].sharers(p.dirs[home].group(a))
				for c := 0; c < m.Cfg.NumChiplets; c++ {
					if c == home {
						continue // the home is not tracked as its own sharer
					}
					if _, _, hit := m.L2[c].Peek(a); hit && mask&(1<<c) == 0 {
						t.Errorf("chiplet %d caches %#x but is not in home %d's sharer mask %04b",
							c, a, home, mask)
					}
				}
			}
		})
	}
}

func TestWriteBackStoreClearsOtherSharers(t *testing.T) {
	p, m, addrs := wbSetup(t)
	line := addrs[0]
	home := m.Pages.HomeIfPlaced(line)
	// Chiplets 1, 2, 3 read the line homed on 0; then chiplet 2 writes it.
	for _, c := range []int{1, 2, 3} {
		p.Access(c, 0, line, false, false)
	}
	p.Access(2, 0, line, true, false)
	mask := p.dirs[home].sharers(p.dirs[home].group(line))
	if mask&^(1<<2) != 0 {
		t.Errorf("sharer mask after store = %04b, want only chiplet 2", mask)
	}
	for _, c := range []int{1, 3} {
		if _, _, hit := m.L2[c].Peek(line); hit {
			t.Errorf("old sharer %d still caches the line after the store", c)
		}
	}
	// And the readers see the new value (blocking invalidations worked).
	for _, c := range []int{1, 3} {
		m.InvalidateL1s(c)
		p.Access(c, 0, line, false, false)
	}
	if m.Mem.StaleReads() != 0 {
		t.Errorf("%d stale reads after sharer invalidation", m.Mem.StaleReads())
	}
}

func TestWriteBackFinalizeCommitsEverything(t *testing.T) {
	p, m, addrs := wbSetup(t)
	// Dirty several lines across both pages from several writers.
	for i, c := range []int{0, 1, 2, 3, 0, 2} {
		a := addrs[i%2] + mem.Addr(i*m.Cfg.LineSize)
		p.Access(c, 0, a, true, i%3 == 0)
	}
	plan := p.Finalize()
	if len(plan.Ops) != m.Cfg.NumChiplets {
		t.Fatalf("finalize ops = %d, want one release per chiplet", len(plan.Ops))
	}
	// Execute the plan the way the executor would: flush each chiplet.
	for _, op := range plan.Ops {
		m.FlushL2(op.Chiplet, op.Ranges)
	}
	for _, base := range addrs {
		for off := 0; off < 6; off++ {
			a := base + mem.Addr(off*m.Cfg.LineSize)
			if m.Mem.Committed(a) != m.Mem.Latest(a) {
				t.Errorf("line %#x: committed v%d != latest v%d after finalize",
					a, m.Mem.Committed(a), m.Mem.Latest(a))
			}
		}
	}
}

// wbSetup builds a write-back HMG over the small machine with two pages
// homed on chiplets 0 and 1; addrs[i] is page i's base line.
func wbSetup(t *testing.T) (*Protocol, *machine.Machine, [2]mem.Addr) {
	t.Helper()
	p, m := newHMG(t, Options{WriteBack: true})
	local, remote := place(m)
	return p, m, [2]mem.Addr{local, remote}
}
