package prefetch

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

func TestMultiStrideTrainsAndIssues(t *testing.T) {
	p := NewMultiStride(16, 2)
	pc := mem.Addr(0x400)
	// Three accesses establish the stride; issues begin at confidence 2.
	p.Observe(0x1000, pc, 0, true)
	p.Observe(0x1040, pc, 10, true)
	p.Observe(0x1080, pc, 20, true)
	if len(p.Drain()) != 0 {
		t.Fatal("issued before confidence threshold")
	}
	p.Observe(0x10C0, pc, 30, true)
	reqs := p.Drain()
	if len(reqs) != 2 {
		t.Fatalf("issued %d requests, want degree 2", len(reqs))
	}
	if reqs[0].Addr != 0x1100 || reqs[1].Addr != 0x1140 {
		t.Errorf("prefetch addresses = %#x, %#x", reqs[0].Addr, reqs[1].Addr)
	}
	if p.Stats().Issued != 2 || p.Stats().Trained != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestMultiStrideStrideChangeResets(t *testing.T) {
	p := NewMultiStride(16, 2)
	pc := mem.Addr(0x400)
	for i := 0; i < 4; i++ {
		p.Observe(mem.Addr(0x1000+i*64), pc, 0, true)
	}
	p.Drain()
	// Stride changes: confidence resets, no immediate prefetch.
	p.Observe(0x9000, pc, 50, true)
	p.Observe(0x9100, pc, 60, true)
	if got := len(p.Drain()); got != 0 {
		t.Fatalf("issued %d after stride change", got)
	}
	// New stride confirmed twice: resume.
	p.Observe(0x9200, pc, 70, true)
	p.Observe(0x9300, pc, 80, true)
	if got := len(p.Drain()); got == 0 {
		t.Fatal("did not re-train on new stride")
	}
}

func TestMultiStrideDistinguishesPCs(t *testing.T) {
	p := NewMultiStride(16, 1)
	// Interleaved streams from two PCs with different strides.
	for i := 0; i < 5; i++ {
		p.Observe(mem.Addr(0x1000+i*64), 0xA, 0, true)
		p.Observe(mem.Addr(0x80000+i*128), 0xB, 0, true)
	}
	reqs := p.Drain()
	sawA, sawB := false, false
	for _, r := range reqs {
		if r.Addr >= 0x1000 && r.Addr < 0x2000 {
			sawA = true
		}
		if r.Addr >= 0x80000 {
			sawB = true
		}
	}
	if !sawA || !sawB {
		t.Errorf("streams trained: A=%v B=%v; want both", sawA, sawB)
	}
}

func TestMultiStrideTableEviction(t *testing.T) {
	p := NewMultiStride(2, 1)
	// Three PCs fight over two entries; the LRU one is evicted.
	p.Observe(0x1000, 0xA, 0, true)
	p.Observe(0x2000, 0xB, 0, true)
	p.Observe(0x3000, 0xC, 0, true) // evicts 0xA
	if p.lookup(0xA) != nil {
		t.Error("LRU entry survived")
	}
	if p.lookup(0xB) == nil || p.lookup(0xC) == nil {
		t.Error("recent entries evicted")
	}
}

func TestMultiStrideZeroStrideSilent(t *testing.T) {
	p := NewMultiStride(16, 2)
	for i := 0; i < 8; i++ {
		p.Observe(0x1000, 0xA, 0, true)
	}
	if got := len(p.Drain()); got != 0 {
		t.Errorf("zero-stride stream issued %d prefetches", got)
	}
}

func xmemWithAtom(t *testing.T, stride int64, ranges []core.PARange) *XMemPrefetcher {
	t.Helper()
	g := core.NewGAT()
	g.LoadAtoms([]core.Atom{{ID: 0, Attrs: core.Attributes{
		Pattern: core.PatternRegular, StrideBytes: stride, Reuse: 200,
	}}})
	p := NewXMem(2)
	p.SetPAT(core.TranslatePrefetch(g))
	p.AtomMapping(core.MapEvent{ID: 0, Ranges: ranges})
	p.SetPinned([]core.AtomID{0})
	return p
}

func TestXMemPrefetchWithinRange(t *testing.T) {
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 4096}})
	// Two forward accesses establish stream confidence; prefetching then
	// runs ahead of the second access.
	p.OnAccess(0x10000, 0, 100)
	if len(p.Drain()) != 0 {
		t.Fatal("prefetched before confidence established")
	}
	p.OnAccess(0x10040, 0, 110)
	reqs := p.Drain()
	if len(reqs) != 2 {
		t.Fatalf("issued %d, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x10080 || reqs[1].Addr != 0x100C0 {
		t.Errorf("addresses = %#x, %#x", reqs[0].Addr, reqs[1].Addr)
	}
	// Steady state: the next access tops the stream up by one stride.
	p.OnAccess(0x10080, 0, 120)
	reqs = p.Drain()
	if len(reqs) != 1 || reqs[0].Addr != 0x10100 {
		t.Fatalf("steady-state top-up = %+v", reqs)
	}
}

func TestXMemPrefetchStencilPingPongSuppressed(t *testing.T) {
	// Alternating far-apart positions (stencil neighbour planes) never
	// establish confidence: no prefetches, no flood.
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 1 << 16}})
	for i := 0; i < 50; i++ {
		p.OnAccess(0x10000+mem.Addr(i*64), 0, 0)
		p.OnAccess(0x18000+mem.Addr(i*64), 0, 0)
		p.OnAccess(0x10000+mem.Addr(i*64), 0, 0) // backward jump
	}
	if got := len(p.Drain()); got > 4 {
		t.Errorf("ping-pong stream issued %d prefetches; run-ahead must be suppressed", got)
	}
}

func TestXMemPrefetchCrossesRangeBoundary(t *testing.T) {
	// Two linearized rows of a 2D tile: prefetch follows into the next
	// row, which no PC-stride prefetcher could know about.
	p := xmemWithAtom(t, 64, []core.PARange{
		{Base: 0x10000, Size: 128},
		{Base: 0x20000, Size: 128},
	})
	p.OnAccess(0x10000, 0, 0)
	p.OnAccess(0x10040, 0, 0) // last line of the first range
	reqs := p.Drain()
	if len(reqs) != 2 {
		t.Fatalf("issued %d, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x20000 {
		t.Errorf("first prefetch = %#x, want start of next range 0x20000", reqs[0].Addr)
	}
}

func TestXMemPrefetchStopsAtEnd(t *testing.T) {
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 128}})
	p.OnAccess(0x10000, 0, 0)
	p.OnAccess(0x10040, 0, 0) // last line; nothing follows
	if got := len(p.Drain()); got != 0 {
		t.Errorf("issued %d past the final range", got)
	}
}

func TestXMemPrefetchUnpinnedAtomIgnored(t *testing.T) {
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 4096}})
	p.SetPinned(nil)
	p.OnAccess(0x10000, 0, 0)
	if got := len(p.Drain()); got != 0 {
		t.Errorf("unpinned atom issued %d prefetches", got)
	}
}

func TestXMemPrefetchIrregularAtomIgnored(t *testing.T) {
	g := core.NewGAT()
	g.LoadAtoms([]core.Atom{{ID: 0, Attrs: core.Attributes{Pattern: core.PatternIrregular}}})
	p := NewXMem(2)
	p.SetPAT(core.TranslatePrefetch(g))
	p.AtomMapping(core.MapEvent{ID: 0, Ranges: []core.PARange{{Base: 0x10000, Size: 4096}}})
	p.SetPinned([]core.AtomID{0})
	p.OnAccess(0x10000, 0, 0)
	if got := len(p.Drain()); got != 0 {
		t.Errorf("irregular atom issued %d prefetches", got)
	}
}

func TestXMemPrefetchUnmapRemovesRanges(t *testing.T) {
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 4096}})
	p.AtomMapping(core.MapEvent{ID: 0, Unmap: true, Ranges: []core.PARange{{Base: 0x10000, Size: 4096}}})
	p.OnAccess(0x10000, 0, 0)
	if got := len(p.Drain()); got != 0 {
		t.Errorf("unmapped atom issued %d prefetches", got)
	}
}

func TestXMemPrefetchDeactivationUnpins(t *testing.T) {
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x10000, Size: 4096}})
	p.AtomStatus(0, false)
	if p.Pinned(0) {
		t.Error("atom still pinned after deactivation")
	}
}

func TestXMemPrefetchLargeStride(t *testing.T) {
	// Stride of 2 lines (128 B): prefetches skip alternate lines.
	p := xmemWithAtom(t, 128, []core.PARange{{Base: 0x10000, Size: 4096}})
	p.OnAccess(0x10000, 0, 0)
	p.OnAccess(0x10080, 0, 0)
	reqs := p.Drain()
	if len(reqs) != 2 || reqs[0].Addr != 0x10100 || reqs[1].Addr != 0x10180 {
		t.Fatalf("requests = %+v", reqs)
	}
}
