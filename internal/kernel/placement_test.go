package kernel

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// The regions below are laid out as the simulator lays out its memories. A
// small hybrid memory's DRAM tier is region 0, at address 0, and its NVM
// tier region 1, from the DRAM device's capacity (1 MiB) up. A NUMA
// machine's nodes are regions of nodeBytes each, end to end.
const (
	dramTier = 0
	nvmTier  = 1
	nvmBase  = mem.Addr(1 << 20)
)

// tierAllocator covers the two tiers with their exact budgets.
func tierAllocator(dramBytes, nvmBytes uint64) *RegionAllocator {
	return NewRegionAllocator(FrameRange{Base: 0, Bytes: dramBytes}, FrameRange{Base: nvmBase, Bytes: nvmBytes})
}

// tierOf reports the tier of a frame handed out by tierAllocator.
func tierOf(frame mem.Addr) int {
	if frame < nvmBase {
		return dramTier
	}
	return nvmTier
}

// nodeAllocator covers nodes nodes of nodeBytes each.
func nodeAllocator(nodes int, nodeBytes uint64) *RegionAllocator {
	ranges := make([]FrameRange, nodes)
	for i := range ranges {
		ranges[i] = FrameRange{Base: mem.Addr(uint64(i) * nodeBytes), Bytes: nodeBytes}
	}
	return NewRegionAllocator(ranges...)
}

func TestAllocatorDRAMFirstByDefault(t *testing.T) {
	// The semantics-blind baseline is first touch: DRAM fills first.
	a := tierAllocator(2*mem.PageBytes, 4*mem.PageBytes)
	prefer := FirstTouch{}.PreferredBanks(core.InvalidAtom)
	for i := 0; i < 2; i++ {
		f, err := a.AllocFrame(prefer)
		if err != nil || tierOf(f) != dramTier {
			t.Fatalf("frame %d: tier %d err %v; want DRAM", i, tierOf(f), err)
		}
	}
	// DRAM exhausted: spills to NVM.
	f, err := a.AllocFrame(prefer)
	if err != nil || tierOf(f) != nvmTier {
		t.Fatalf("spill frame: tier %d err %v; want NVM", tierOf(f), err)
	}
	if a.FreeFrames() != 3 {
		t.Errorf("free frames = %d, want 3", a.FreeFrames())
	}
}

func TestAllocatorHonoursTierPreference(t *testing.T) {
	a := tierAllocator(4*mem.PageBytes, 4*mem.PageBytes)
	nvm := []int{nvmTier}
	f, err := a.AllocFrame(nvm)
	if err != nil || tierOf(f) != nvmTier {
		t.Fatalf("preferred NVM got tier %d, err %v", tierOf(f), err)
	}
	// Preferred tier exhausted falls back.
	for i := 0; i < 3; i++ {
		a.AllocFrame(nvm)
	}
	f, err = a.AllocFrame(nvm)
	if err != nil || tierOf(f) != dramTier {
		t.Fatalf("fallback got tier %d, err %v", tierOf(f), err)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := tierAllocator(mem.PageBytes, mem.PageBytes)
	prefer := FirstTouch{}.PreferredBanks(core.InvalidAtom)
	a.AllocFrame(prefer)
	a.AllocFrame(prefer)
	if _, err := a.AllocFrame(prefer); err == nil {
		t.Error("exhausted allocator succeeded")
	}
}

func TestTierPlacementDecisions(t *testing.T) {
	atoms := []core.Atom{
		{ID: 0, Name: "hotRW", Attrs: core.Attributes{RW: core.ReadWrite, Intensity: 50}},
		{ID: 1, Name: "coldRO", Attrs: core.Attributes{RW: core.ReadOnly, Intensity: 20}},
		{ID: 2, Name: "hotRO", Attrs: core.Attributes{RW: core.ReadOnly, Intensity: 200}},
		{ID: 3, Name: "writeOnly", Attrs: core.Attributes{RW: core.WriteOnly, Intensity: 10}},
	}
	p := NewTierPlacement(atoms)
	cases := map[core.AtomID]int{
		0: dramTier, // written data avoids NVM write asymmetry
		1: nvmTier,  // cold read-only belongs in the capacity tier
		2: dramTier, // hot read-only earns fast-tier bandwidth
		3: dramTier,
	}
	for id, want := range cases {
		if banks := p.PreferredBanks(id); len(banks) != 1 || banks[0] != want {
			t.Errorf("atom %d -> banks %v, want %v", id, banks, want)
		}
	}
	if banks := p.PreferredBanks(core.InvalidAtom); len(banks) != 1 || banks[0] != dramTier {
		t.Errorf("unknown atom banks = %v, want DRAM (the first-touch baseline)", banks)
	}
}

func TestAllocatorInterleavesByDefault(t *testing.T) {
	const nodeBytes = 1 << 20
	a := nodeAllocator(2, nodeBytes)
	nodes := map[int]int{}
	for i := 0; i < 8; i++ {
		f, err := a.AllocFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[int(uint64(f)/nodeBytes)]++
	}
	if nodes[0] != 4 || nodes[1] != 4 {
		t.Errorf("interleave = %v, want 4/4", nodes)
	}
}

func TestAllocatorHonoursNodePreference(t *testing.T) {
	const nodeBytes = 1 << 20
	a := nodeAllocator(2, nodeBytes)
	node := func(f mem.Addr) int { return int(uint64(f) / nodeBytes) }
	// Node 1's frames all go first, then the allocator falls back to node 0.
	for i := 0; i < nodeBytes/mem.PageBytes; i++ {
		f, err := a.AllocFrame([]int{1})
		if err != nil || node(f) != 1 {
			t.Fatalf("frame %d on node %d, err %v", i, node(f), err)
		}
	}
	f, err := a.AllocFrame([]int{1})
	if err != nil || node(f) != 0 {
		t.Fatalf("fallback frame on node %d, err %v", node(f), err)
	}
}

func TestPlacementUsesHomeAttribute(t *testing.T) {
	atoms := []core.Atom{
		{ID: 0, Name: "mine", Attrs: core.Attributes{Home: core.HomeThread(0)}},
		{ID: 1, Name: "theirs", Attrs: core.Attributes{Home: core.HomeThread(1)}},
		{ID: 2, Name: "untagged", Attrs: core.Attributes{}},
		{ID: 3, Name: "wrapped", Attrs: core.Attributes{Home: core.HomeThread(3)}},
	}
	p := NewHomePlacement(atoms, 0, 2)
	for id, want := range []int{0, 1, 0, 1} { // untagged stays local; thread 3 runs on node 3 mod 2
		if got := p.PreferredBanks(core.AtomID(id)); len(got) != 1 || got[0] != want {
			t.Errorf("atom %d -> %v, want node %d", id, got, want)
		}
	}
	// The same segment interpreted by a process on node 1.
	p1 := NewHomePlacement(atoms, 1, 2)
	if got := p1.PreferredBanks(2); got[0] != 1 {
		t.Errorf("untagged on node 1 -> %v", got)
	}
}
