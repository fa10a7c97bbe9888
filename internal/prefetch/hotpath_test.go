package prefetch

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// The TestHotPath gates (part of `make alloc-gate`) pin the prefetchers'
// steady state at zero allocations: Drain hands back the queue without
// giving up its backing array, so training and draining reuse it.

// allocsPerBatch counts the allocations of n steps. AllocsPerRun truncates
// to whole allocations per run, so a run is a batch of steps and an
// occasional regrowth still counts.
func allocsPerBatch(n int, step func()) float64 {
	return testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			step()
		}
	})
}

func TestHotPathStrideObserveDrainAllocFree(t *testing.T) {
	p := NewMultiStride(16, 2)
	var pa mem.Addr
	issued := 0
	step := func() {
		// Two PCs with different strides keep two table entries trained.
		p.Observe(0x100000+pa, 0xA, uint64(pa), false)
		p.Observe(0x800000+2*pa, 0xB, uint64(pa), true)
		issued += len(p.Drain())
		pa += mem.LineBytes
	}
	for i := 0; i < 16; i++ {
		step()
	}
	issued = 0
	if allocs := allocsPerBatch(256, step); allocs != 0 {
		t.Errorf("Observe+Drain allocates %v per 256 steps, want 0", allocs)
	}
	if issued == 0 {
		t.Fatal("trained stream issued no prefetches")
	}
}

func TestHotPathXMemOnAccessDrainAllocFree(t *testing.T) {
	const size = 1 << 20
	p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x100000, Size: size}})
	var pos mem.Addr
	issued := 0
	step := func() {
		p.OnAccess(0x100000+pos, 0, uint64(pos))
		issued += len(p.Drain())
		pos = (pos + mem.LineBytes) % size
	}
	for i := 0; i < 16; i++ {
		step()
	}
	issued = 0
	if allocs := allocsPerBatch(256, step); allocs != 0 {
		t.Errorf("OnAccess+Drain allocates %v per 256 steps, want 0", allocs)
	}
	if issued == 0 {
		t.Fatal("pinned stream issued no prefetches")
	}
}
