package hybrid

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
)

// testMemory builds a 16 MiB DRAM tier in front of a 64 MiB NVM tier, the
// two regions of one region memory.
func testMemory(t *testing.T) *dram.RegionMemory {
	t.Helper()
	cfg := DefaultConfig(16<<20, 64<<20)
	m, err := dram.NewRegionMemory(cfg.DRAM, cfg.NVM)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tierStats returns the per-tier counters of a memory built by testMemory.
func tierStats(m *dram.RegionMemory) (dramStats, nvmStats dram.Stats) {
	return m.Controller(int(TierDRAM)).Stats(), m.Controller(int(TierNVM)).Stats()
}

// testAllocator covers the two tiers as the simulator does: each tier's
// exact budget, the NVM tier starting at the DRAM device's rounded
// capacity.
func testAllocator(dramBytes, nvmBytes uint64) *kernel.RegionAllocator {
	return kernel.NewRegionAllocator(
		kernel.FrameRange{Base: 0, Bytes: dramBytes},
		kernel.FrameRange{Base: mem.Addr(nextPow2(dramBytes)), Bytes: nvmBytes})
}

// frameTier reports the tier of a frame handed out by testAllocator.
func frameTier(dramBytes uint64, frame mem.Addr) Tier {
	if frame < mem.Addr(nextPow2(dramBytes)) {
		return TierDRAM
	}
	return TierNVM
}

func TestMemoryRoutesByTier(t *testing.T) {
	m := testMemory(t)
	m.Access(0x1000, mem.Read, 0, 0).Wait()        // DRAM
	m.Access(16<<20+0x1000, mem.Read, 0, 0).Wait() // NVM
	d, n := tierStats(m)
	if d.Reads != 1 || n.Reads != 1 {
		t.Fatalf("tier reads = %d dram, %d nvm; want 1/1", d.Reads, n.Reads)
	}
	if s := m.Stats(); s.Reads != 2 {
		t.Errorf("combined reads = %d", s.Reads)
	}
}

func TestNVMSlowerThanDRAM(t *testing.T) {
	m := testMemory(t)
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
	m := testMemory(t)
	// Open a row in the NVM tier, then compare a read hit with a write.
	nvm := mem.Addr(16 << 20)
	m.Access(nvm, mem.Read, 0, 0).Wait()
	read := m.Access(nvm+64, mem.Read, 100000, 0).Wait() - 100000
	m.Access(nvm+128, mem.Writeback, 200000, 0)
	m.DrainAll()
	_, n := tierStats(m)
	if n.Writes != 1 {
		t.Fatalf("nvm writes = %d", n.Writes)
	}
	if wl := n.AvgWriteLatency(); wl <= float64(read) {
		t.Errorf("NVM write latency %.0f <= read latency %d; asymmetry missing", wl, read)
	}
}

func TestAllocatorDRAMFirstByDefault(t *testing.T) {
	// The semantics-blind baseline is first touch: DRAM fills first.
	const dramBytes = 2 * mem.PageBytes
	a := testAllocator(dramBytes, 4*mem.PageBytes)
	prefer := kernel.FirstTouch{}.PreferredBanks(core.InvalidAtom)
	for i := 0; i < 2; i++ {
		f, err := a.AllocFrame(prefer)
		if err != nil || frameTier(dramBytes, f) != TierDRAM {
			t.Fatalf("frame %d: tier %v err %v; want DRAM", i, frameTier(dramBytes, f), err)
		}
	}
	// DRAM exhausted: spills to NVM.
	f, err := a.AllocFrame(prefer)
	if err != nil || frameTier(dramBytes, f) != TierNVM {
		t.Fatalf("spill frame: tier %v err %v; want NVM", frameTier(dramBytes, f), err)
	}
	if a.FreeFrames() != 3 {
		t.Errorf("free frames = %d, want 3", a.FreeFrames())
	}
}

func TestAllocatorHonoursTierPreference(t *testing.T) {
	const dramBytes = 4 * mem.PageBytes
	a := testAllocator(dramBytes, 4*mem.PageBytes)
	nvm := []int{int(TierNVM)}
	f, err := a.AllocFrame(nvm)
	if err != nil || frameTier(dramBytes, f) != TierNVM {
		t.Fatalf("preferred NVM got tier %v, err %v", frameTier(dramBytes, f), err)
	}
	// Preferred tier exhausted falls back.
	for i := 0; i < 3; i++ {
		a.AllocFrame(nvm)
	}
	f, err = a.AllocFrame(nvm)
	if err != nil || frameTier(dramBytes, f) != TierDRAM {
		t.Fatalf("fallback got tier %v, err %v", frameTier(dramBytes, f), err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := testAllocator(mem.PageBytes, mem.PageBytes)
	prefer := kernel.FirstTouch{}.PreferredBanks(core.InvalidAtom)
	a.AllocFrame(prefer)
	a.AllocFrame(prefer)
	if _, err := a.AllocFrame(prefer); err == nil {
		t.Error("exhausted allocator succeeded")
	}
}

func TestPlacementDecisions(t *testing.T) {
	atoms := []core.Atom{
		{ID: 0, Name: "hotRW", Attrs: core.Attributes{RW: core.ReadWrite, Intensity: 50}},
		{ID: 1, Name: "coldRO", Attrs: core.Attributes{RW: core.ReadOnly, Intensity: 20}},
		{ID: 2, Name: "hotRO", Attrs: core.Attributes{RW: core.ReadOnly, Intensity: 200}},
		{ID: 3, Name: "writeOnly", Attrs: core.Attributes{RW: core.WriteOnly, Intensity: 10}},
	}
	p := NewPlacement(atoms)
	cases := map[core.AtomID]Tier{
		0: TierDRAM, // written data avoids NVM write asymmetry
		1: TierNVM,  // cold read-only belongs in the capacity tier
		2: TierDRAM, // hot read-only earns fast-tier bandwidth
		3: TierDRAM,
	}
	for id, want := range cases {
		if banks := p.PreferredBanks(id); len(banks) != 1 || banks[0] != int(want) {
			t.Errorf("atom %d -> banks %v, want %v", id, banks, want)
		}
	}
	if banks := p.PreferredBanks(core.InvalidAtom); len(banks) != 1 || banks[0] != int(TierDRAM) {
		t.Errorf("unknown atom banks = %v, want DRAM (the first-touch baseline)", banks)
	}
}

func TestTierString(t *testing.T) {
	if TierDRAM.String() != "DRAM" || TierNVM.String() != "NVM" {
		t.Error("tier names wrong")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(16<<20, 64<<20)
	cfg.NVM.Scheme = "bogus"
	if _, err := dram.NewRegionMemory(cfg.DRAM, cfg.NVM); err == nil {
		t.Error("bad NVM scheme accepted")
	}
}
