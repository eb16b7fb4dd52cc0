package machine

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/stats"
)

func smallCfg() config.GPU {
	g := config.Default(4)
	g.CUsPerChiplet = 4
	g.L1SizeBytes = 1 << 10
	g.L2SizeBytes = 64 << 10
	g.L3SizeBytes = 128 << 10
	return g
}

func newM(t *testing.T) *Machine {
	t.Helper()
	return must(New(smallCfg(), mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
}

func TestMachineShape(t *testing.T) {
	m := newM(t)
	if len(m.L2) != 4 || len(m.L3) != 4 || len(m.L1) != 4 || len(m.L1[0]) != 4 {
		t.Fatal("machine shape wrong")
	}
	if m.LineSize() != 64 {
		t.Error("line size")
	}
}

func TestHomeFirstTouch(t *testing.T) {
	m := newM(t)
	a := mem.Addr(0x1000_0000)
	if m.Home(a, 2) != 2 || m.Home(a, 3) != 2 {
		t.Error("first touch not sticky")
	}
}

func TestL3ReadFillAndDRAM(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0040)
	_, cy := m.L3Read(line, 1, 1)
	if cy != m.Cfg.L3Latency+m.Cfg.DRAMLatency {
		t.Errorf("cold L3 read latency = %d", cy)
	}
	if m.Sheet.Get(stats.DRAMReads) != 1 {
		t.Error("DRAM read not counted")
	}
	_, cy = m.L3Read(line, 1, 1)
	if cy != m.Cfg.L3Latency {
		t.Errorf("warm L3 read latency = %d", cy)
	}
	// Remote access pays the NUMA hop.
	_, cy = m.L3Read(line, 0, 1)
	if cy != m.Cfg.L2RemoteLatency {
		t.Errorf("remote L3 hit latency = %d, want %d", cy, m.Cfg.L2RemoteLatency)
	}
}

func TestL3WriteCommits(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0080)
	v := m.Mem.Store(line)
	cy := m.L3Write(line, v, 0, 2)
	if cy != m.Cfg.L2RemoteLatency {
		t.Errorf("remote write-through latency = %d", cy)
	}
	if m.Mem.Committed(line) != v {
		t.Error("write-through did not commit")
	}
}

func TestFlushAndInvalidateL2(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0000)
	m.Home(line, 1)
	v := m.Mem.Store(line)
	m.L2[1].Fill(line, v, true)

	lines, cy := m.FlushL2(1, mem.RangeSet{})
	if lines != 1 || cy <= 0 {
		t.Errorf("flush = %d lines, %d cycles", lines, cy)
	}
	if m.Mem.Committed(line) != v {
		t.Error("flush did not commit dirty data")
	}
	if m.L2[1].ValidLines() != 1 {
		t.Error("flush dropped the clean copy")
	}

	v2 := m.Mem.Store(line)
	m.L2[1].Write(line, v2)
	inv, _ := m.InvalidateL2(1, mem.RangeSet{})
	if inv != 1 {
		t.Errorf("invalidated %d lines", inv)
	}
	if m.Mem.Committed(line) != v2 {
		t.Error("invalidate discarded dirty data instead of flushing first")
	}
	if m.L2[1].ValidLines() != 0 {
		t.Error("invalidate left lines")
	}
}

func TestRangeMaintenanceOps(t *testing.T) {
	m := newM(t)
	a, b := mem.Addr(0x1000_0000), mem.Addr(0x1040_0000)
	m.Home(a, 0)
	m.Home(b, 0)
	m.L2[0].Fill(a, m.Mem.Store(a), true)
	m.L2[0].Fill(b, m.Mem.Store(b), true)
	rs := mem.NewRangeSet(mem.Range{Lo: a, Hi: a + 64})
	if lines, _ := m.FlushL2(0, rs); lines != 1 {
		t.Errorf("range flush hit %d lines", lines)
	}
	if m.L2[0].DirtyLines() != 1 {
		t.Error("range flush touched out-of-range line")
	}
	if lines, _ := m.InvalidateL2(0, rs); lines != 1 {
		t.Error("range invalidate wrong")
	}
	if m.Mem.Committed(b) != 0 {
		t.Error("range ops leaked to other lines")
	}
}

func TestL1PathsAndBoundaryInvalidate(t *testing.T) {
	m := newM(t)
	line := mem.Addr(0x1000_0000)
	if _, hit := m.L1Read(0, 1, line); hit {
		t.Error("cold L1 hit")
	}
	m.L1Fill(0, 1, line, 3)
	if ver, hit := m.L1Read(0, 1, line); !hit || ver != 3 {
		t.Error("L1 fill/read broken")
	}
	m.L1WriteThrough(0, 1, line, 4)
	if ver, _ := m.L1Read(0, 1, line); ver != 4 {
		t.Error("write-through did not refresh L1 copy")
	}
	if n := m.InvalidateL1s(0); n != 1 {
		t.Errorf("invalidated %d L1 lines", n)
	}
	if _, hit := m.L1Read(0, 1, line); hit {
		t.Error("L1 line survived boundary invalidation")
	}
}

func TestCommitWritebackSpillsL3Victims(t *testing.T) {
	g := smallCfg()
	g.L3SizeBytes = 4 * 64 * 16 * 4 // 4 sets/bank, tiny
	m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))
	// Overflow one L3 bank with dirty writebacks.
	for i := 0; i < 600; i++ {
		line := mem.Addr(0x1000_0000 + i*64)
		m.Home(line, 0)
		m.CommitWriteback(line, m.Mem.Store(line), 0)
	}
	if m.Sheet.Get(stats.DRAMWrites) == 0 {
		t.Error("L3 overflow never spilled to DRAM")
	}
}

func TestCrossGPULatencyAndTraffic(t *testing.T) {
	g := smallCfg()
	g.NumChiplets = 4
	g.NumGPUs = 2 // chiplets {0,1} on GPU0, {2,3} on GPU1
	m := must(New(g, mem.Range{Lo: 0x1000_0000, Hi: 0x1000_0000 + 8<<20}, stats.New()))

	if m.RemoteLatency(0, 1) != g.L2RemoteLatency {
		t.Error("on-package remote latency wrong")
	}
	if m.RemoteLatency(0, 2) != g.CrossGPULatency {
		t.Error("cross-GPU latency wrong")
	}

	line := mem.Addr(0x1000_0000)
	m.Home(line, 3) // homed on GPU1
	m.L3[3].Fill(line, 0, false)
	_, cy := m.L3Read(line, 0, 3) // accessed from GPU0
	if cy != g.CrossGPULatency {
		t.Errorf("cross-GPU L3 hit latency = %d, want %d", cy, g.CrossGPULatency)
	}
	if m.Sheet.Get(stats.FlitsInterGPU) == 0 {
		t.Error("cross-GPU transfer not counted on the inter-GPU link")
	}
	if m.Fabric.InterGPUBytes() == 0 {
		t.Error("inter-GPU byte accounting missing")
	}
	// Same-GPU remote transfers stay off the inter-GPU link.
	ig := m.Sheet.Get(stats.FlitsInterGPU)
	m.L3Read(line+0x100000, 2, 3)
	if m.Sheet.Get(stats.FlitsInterGPU) != ig {
		t.Error("same-GPU transfer leaked onto the inter-GPU link")
	}
}

// must unwraps constructor errors in tests, where geometry is known-valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
