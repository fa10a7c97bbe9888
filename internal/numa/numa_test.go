package numa

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
)

const testNodeBytes = 16 << 20

// testMemory builds two 16 MiB nodes and a port on each.
func testMemory(t *testing.T) (*dram.RegionMemory, [2]*Port) {
	t.Helper()
	m, err := New(Config{Nodes: 2, NodeBytes: testNodeBytes})
	if err != nil {
		t.Fatal(err)
	}
	return m, [2]*Port{{Mem: m, Node: 0}, {Mem: m, Node: 1}}
}

// testAllocator covers nodes nodes of nodeBytes each, as the simulator
// does.
func testAllocator(nodes int, nodeBytes uint64) *kernel.RegionAllocator {
	ranges := make([]kernel.FrameRange, nodes)
	for i := range ranges {
		ranges[i] = kernel.FrameRange{Base: mem.Addr(uint64(i) * nodeBytes), Bytes: nodeBytes}
	}
	return kernel.NewRegionAllocator(ranges...)
}

func TestRemotePenalty(t *testing.T) {
	_, p := testMemory(t)
	local := p[0].Access(0x1000, mem.Read, 0, 0).Wait()
	remote := p[1].Access(0x1000, mem.Read, 100000, 0).Wait() - 100000
	// Remote pays the penalty twice (request + response), and the row is
	// already open on the second access, so compare conservatively.
	if remote <= local {
		t.Errorf("remote %d <= local %d", remote, local)
	}
	if f := RemoteFraction(p[:]); f != 0.5 {
		t.Errorf("remote fraction = %.2f, want 0.5", f)
	}
}

func TestNodeRouting(t *testing.T) {
	m, p := testMemory(t)
	p[0].Access(0x1000, mem.Read, 0, 0).Wait()
	p[0].Access(mem.Addr(testNodeBytes)+0x1000, mem.Read, 0, 0).Wait()
	m.DrainAll()
	if m.Controller(0).Stats().Reads != 1 || m.Controller(1).Stats().Reads != 1 {
		t.Errorf("node reads = %d, %d; want 1 each",
			m.Controller(0).Stats().Reads, m.Controller(1).Stats().Reads)
	}
	if m.Stats().Reads != 2 {
		t.Errorf("combined reads = %d", m.Stats().Reads)
	}
	if p[0].Local != 1 || p[0].Remote != 1 {
		t.Errorf("port 0 local/remote = %d/%d, want 1/1", p[0].Local, p[0].Remote)
	}
}

func TestWritebackRequestSidePenaltyOnly(t *testing.T) {
	// A posted write pays the interconnect once (request side) but never
	// waits for a response.
	_, p := testMemory(t)
	d := p[1].Access(0x1000, mem.Writeback, 50, 0).Wait()
	if d != 50+DefaultRemoteLatency {
		t.Errorf("remote writeback ack = %d, want arrival+penalty = %d", d, 50+DefaultRemoteLatency)
	}
	dl := p[0].Access(0x2000, mem.Writeback, 50, 0).Wait()
	if dl != 50 {
		t.Errorf("local writeback ack = %d, want 50", dl)
	}
}

func TestNewRejectsBadNodeCount(t *testing.T) {
	if _, err := New(Config{Nodes: 3, NodeBytes: 16 << 20}); err == nil {
		t.Error("3 nodes accepted")
	}
}

func TestAllocatorInterleavesByDefault(t *testing.T) {
	const nodeBytes = 1 << 20
	a := testAllocator(2, nodeBytes)
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
	a := testAllocator(2, nodeBytes)
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
	}
	p := NewPlacement(atoms, 0, nil)
	if got := p.PreferredBanks(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("atom 0 -> %v", got)
	}
	if got := p.PreferredBanks(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("atom 1 -> %v", got)
	}
	// Untagged data defaults to the local node.
	if got := p.PreferredBanks(2); len(got) != 1 || got[0] != 0 {
		t.Errorf("untagged -> %v", got)
	}
	// The same segment interpreted by a process on node 1.
	p1 := NewPlacement(atoms, 1, nil)
	if got := p1.PreferredBanks(2); got[0] != 1 {
		t.Errorf("untagged on node 1 -> %v", got)
	}
}

func TestHomeAttributeRoundTrips(t *testing.T) {
	atoms := []core.Atom{{ID: 0, Name: "x", Attrs: core.Attributes{Home: core.HomeThread(3)}}}
	decoded, err := core.DecodeSegment(core.EncodeSegment(atoms))
	if err != nil {
		t.Fatal(err)
	}
	if th, ok := core.HomeOf(decoded[0].Attrs.Home); !ok || th != 3 {
		t.Errorf("decoded home = %d,%v, want thread 3", th, ok)
	}
	if _, ok := core.HomeOf(core.HomeNone); ok {
		t.Error("HomeNone decoded as a thread")
	}
}
