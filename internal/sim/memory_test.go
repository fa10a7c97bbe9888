package sim

import (
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// TestFrameTable: a frame never set, or past the table's end, reads as core
// 0 and InvalidAtom; InvalidAtom round-trips through a write; growing the
// table keeps the entries set before.
func TestFrameTable(t *testing.T) {
	// in returns an address inside frame f, off its first byte.
	in := func(f uint64) mem.Addr { return mem.Addr(f*mem.PageBytes + 3*mem.LineBytes) }
	var ft frameTable
	if core, atom := ft.owner(in(0)); core != 0 || atom != xm.InvalidAtom {
		t.Fatalf("empty table: frame 0 owned by core %d, atom %d", core, atom)
	}
	ft.set(in(2), 1, 7)
	ft.set(in(3), 2, xm.InvalidAtom)
	ft.set(in(40), 3, 0) // grows the table past frames 2 and 3
	for _, c := range []struct {
		name  string
		frame uint64
		core  int
		atom  xm.AtomID
	}{
		{"never set", 0, 0, xm.InvalidAtom},
		{"tagged, set before growth", 2, 1, 7},
		{"InvalidAtom, set before growth", 3, 2, xm.InvalidAtom},
		{"gap filled by growth", 20, 0, xm.InvalidAtom},
		{"atom 0", 40, 3, 0},
		{"past the end", 41, 0, xm.InvalidAtom},
		{"far past the end", 1 << 40, 0, xm.InvalidAtom},
	} {
		if core, atom := ft.owner(in(c.frame)); core != c.core || atom != c.atom {
			t.Errorf("%s: frame %d owned by core %d, atom %d; want core %d, atom %d",
				c.name, c.frame, core, atom, c.core, c.atom)
		}
	}
}

// testMemory builds the memory side cfg describes for the given number of
// cores.
func testMemory(t *testing.T, cfg MultiConfig, cores int) *memorySide {
	t.Helper()
	side, err := buildMemory(&cfg, cores)
	if err != nil {
		t.Fatal(err)
	}
	return side
}

// hybridTiers builds a hybrid machine's memory: a 16 MiB DRAM tier in front
// of a 64 MiB NVM tier.
func hybridTiers(t *testing.T) *dram.RegionMemory {
	t.Helper()
	cfg := multiConfig()
	cfg.Core.Hybrid = &HybridConfig{DRAMBytes: 16 << 20, NVMBytes: 64 << 20}
	return testMemory(t, cfg, 1).tiers
}

// numaPorts builds a machine of two 16 MiB nodes with one core on each, and
// returns its node memory and the two cores' ports.
func numaPorts(t *testing.T) (*dram.RegionMemory, []*port) {
	t.Helper()
	cfg := multiConfig()
	cfg.NUMA = &NUMAConfig{Nodes: 2, NodeBytes: 16 << 20}
	side := testMemory(t, cfg, 2)
	return side.mem.(*dram.RegionMemory), side.ports
}

func TestMemoryRoutesByTier(t *testing.T) {
	m := hybridTiers(t)
	m.Access(0x1000, mem.Read, 0, 0).Wait()        // DRAM
	m.Access(16<<20+0x1000, mem.Read, 0, 0).Wait() // NVM
	d, n := m.Controller(kernel.TierDRAM).Stats(), m.Controller(kernel.TierNVM).Stats()
	if d.Reads != 1 || n.Reads != 1 {
		t.Fatalf("tier reads = %d dram, %d nvm; want 1/1", d.Reads, n.Reads)
	}
	if s := m.Stats(); s.Reads != 2 {
		t.Errorf("combined reads = %d", s.Reads)
	}
}

func TestNVMSlowerThanDRAM(t *testing.T) {
	m := hybridTiers(t)
	dFast := m.Access(0x0, mem.Read, 0, 0).Wait()
	dSlow := m.Access(16<<20, mem.Read, 0, 0).Wait()
	if dSlow <= dFast {
		t.Errorf("NVM read (%d) not slower than DRAM read (%d)", dSlow, dFast)
	}
}

func TestNVMWriteAsymmetry(t *testing.T) {
	tm := dram.NVMTiming()
	if tm.WritePenalty == 0 {
		t.Fatal("NVM timing has no write penalty")
	}
	m := hybridTiers(t)
	// Open a row in the NVM tier, then compare a read hit with a write.
	nvm := mem.Addr(16 << 20)
	m.Access(nvm, mem.Read, 0, 0).Wait()
	read := m.Access(nvm+64, mem.Read, 100000, 0).Wait() - 100000
	m.Access(nvm+128, mem.Writeback, 200000, 0)
	m.DrainAll()
	n := m.Controller(kernel.TierNVM).Stats()
	if n.Writes != 1 {
		t.Fatalf("nvm writes = %d", n.Writes)
	}
	if wl := n.AvgWriteLatency(); wl <= float64(read) {
		t.Errorf("NVM write latency %.0f <= read latency %d; asymmetry missing", wl, read)
	}
}

// TestHybridRejectsBadScheme: both tiers take the machine's scheme, so a bad
// one fails the build.
func TestHybridRejectsBadScheme(t *testing.T) {
	cfg := multiConfig()
	cfg.Core.Hybrid = &HybridConfig{DRAMBytes: 16 << 20, NVMBytes: 64 << 20}
	cfg.Core.Scheme = "bogus"
	if _, err := buildMemory(&cfg, 1); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestRemotePenalty(t *testing.T) {
	_, p := numaPorts(t)
	local := p[0].Access(0x1000, mem.Read, 0, 0).Wait()
	remote := p[1].Access(0x1000, mem.Read, 100000, 0).Wait() - 100000
	// Remote pays the penalty twice (request + response), and the row is
	// already open on the second access, so compare conservatively.
	if remote <= local {
		t.Errorf("remote %d <= local %d", remote, local)
	}
	if f := remoteFraction(p); f != 0.5 {
		t.Errorf("remote fraction = %.2f, want 0.5", f)
	}
}

func TestNodeRouting(t *testing.T) {
	m, p := numaPorts(t)
	p[0].Access(0x1000, mem.Read, 0, 0).Wait()
	p[0].Access(16<<20+0x1000, mem.Read, 0, 0).Wait()
	m.DrainAll()
	if m.Controller(0).Stats().Reads != 1 || m.Controller(1).Stats().Reads != 1 {
		t.Errorf("node reads = %d, %d; want 1 each",
			m.Controller(0).Stats().Reads, m.Controller(1).Stats().Reads)
	}
	if m.Stats().Reads != 2 {
		t.Errorf("combined reads = %d", m.Stats().Reads)
	}
	if p[0].local != 1 || p[0].remote != 1 {
		t.Errorf("port 0 local/remote = %d/%d, want 1/1", p[0].local, p[0].remote)
	}
}

func TestWritebackRequestSidePenaltyOnly(t *testing.T) {
	// A posted write pays the interconnect once (request side) but never
	// waits for a response.
	_, p := numaPorts(t)
	d := p[1].Access(0x1000, mem.Writeback, 50, 0).Wait()
	if d != 50+remoteLatency {
		t.Errorf("remote writeback ack = %d, want arrival+penalty = %d", d, 50+remoteLatency)
	}
	dl := p[0].Access(0x2000, mem.Writeback, 50, 0).Wait()
	if dl != 50 {
		t.Errorf("local writeback ack = %d, want 50", dl)
	}
}

// TestNUMARejectsNonPositiveNodeCount: a NUMA machine needs a node; any
// positive count builds.
func TestNUMARejectsNonPositiveNodeCount(t *testing.T) {
	for _, nodes := range []int{0, -2} {
		cfg := multiConfig()
		cfg.NUMA = &NUMAConfig{Nodes: nodes, NodeBytes: 16 << 20}
		if _, err := buildMemory(&cfg, 1); err == nil {
			t.Errorf("%d nodes accepted", nodes)
		}
	}
	cfg := multiConfig()
	cfg.NUMA = &NUMAConfig{Nodes: 3, NodeBytes: 16 << 20}
	if p := testMemory(t, cfg, 3).ports; p[2].node != 2 {
		t.Errorf("3 nodes: core 2 on node %d, want 2", p[2].node)
	}
}

// TestDeviceFieldsApplyToEveryMemory: the machine's IdealRBL, FCFS,
// geometry and Scheme reach the devices of NUMA and hybrid machines, not
// only a bare controller.
func TestDeviceFieldsApplyToEveryMemory(t *testing.T) {
	numa := func(set func(*Config)) MultiResult {
		cfg := multiConfig()
		cfg.NUMA = &NUMAConfig{Nodes: 2, NodeBytes: 64 << 20, Placement: "interleave"}
		set(&cfg.Core)
		return MustRunMulti(cfg, []workload.Workload{streamWorkload(2048, 2), streamWorkload(2048, 2)})
	}
	base := numa(func(*Config) {})
	if r := numa(func(c *Config) { c.IdealRBL = true }); r.DRAM.RowHitRate() != 1 {
		t.Errorf("NUMA with IdealRBL: row-hit rate %.4f, want 1 (%.4f without)", r.DRAM.RowHitRate(), base.DRAM.RowHitRate())
	}
	if r := numa(func(c *Config) { c.FCFS = true }); r.Cycles == base.Cycles {
		t.Errorf("NUMA with FCFS: %d cycles, as with FR-FCFS", r.Cycles)
	}
	if r := numa(func(c *Config) { c.Geometry.Channels = 1 }); r.Cycles == base.Cycles {
		t.Errorf("NUMA on one channel: %d cycles, as on two", r.Cycles)
	}
	hybrid := func(scheme string) uint64 {
		cfg := testConfig()
		cfg.Hybrid = &HybridConfig{DRAMBytes: 4 << 20, NVMBytes: 32 << 20, XMemPlacement: true}
		cfg.Scheme = scheme
		return MustRun(cfg, streamWorkload(4096, 2)).Cycles
	}
	if a, b := hybrid("ro:ra:ba:co:ch"), hybrid("ro:co:ra:ba:ch"); a == b {
		t.Errorf("hybrid: %d cycles under either scheme", a)
	}
}
