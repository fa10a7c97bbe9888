package core

import (
	"testing"

	"xmem/internal/mem"
)

// This file is the allocation audit for the per-access lookup path: the
// TestHotPath*AllocFree gates (run by `make alloc-gate`, part of `make
// check` and CI) pin the steady-state figure at exactly zero.

// hotAMU returns an AMU with eight atoms mapped over the first nPages
// pages, all active.
func hotAMU(nPages int, albEntries int) *AMU {
	u := NewAMU(identityMMU{}, AMUConfig{ALBEntries: albEntries})
	for p := 0; p < nPages; p++ {
		id := AtomID(p % 8)
		u.ExecMap(id, mem.Addr(p)*mem.PageBytes, mem.PageBytes)
	}
	for id := AtomID(0); id < 8; id++ {
		u.ExecActivate(id)
	}
	return u
}

// TestHotPathLookupAllocFree is the allocs/op regression gate for
// AMU.Lookup: zero allocations in steady state, on the ALB-hit path, the
// miss+evict path, and the unmapped-page path.
func TestHotPathLookupAllocFree(t *testing.T) {
	t.Run("warm-alb-hit", func(t *testing.T) {
		u := hotAMU(4, 8)
		for p := 0; p < 4; p++ {
			u.Lookup(mem.Addr(p) * mem.PageBytes) // warm the ALB
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			u.Lookup(mem.Addr(i%4)*mem.PageBytes + mem.Addr(i*64%mem.PageBytes))
			i++
		}); allocs != 0 {
			t.Errorf("ALB-hit Lookup allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("miss-evict", func(t *testing.T) {
		// Twice as many hot pages as ALB entries, visited round-robin:
		// every lookup misses, walks the AAM, and evicts an LRU entry.
		u := hotAMU(8, 4)
		for p := 0; p < 8; p++ {
			u.Lookup(mem.Addr(p) * mem.PageBytes)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			u.Lookup(mem.Addr(i%8) * mem.PageBytes)
			i++
		}); allocs != 0 {
			t.Errorf("miss+evict Lookup allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("unmapped-page", func(t *testing.T) {
		// Lookups over pages with no AAM entry fill from the AMU's
		// constant empty-page image.
		u := hotAMU(2, 4)
		base := mem.Addr(64) * mem.PageBytes
		for p := mem.Addr(0); p < 8; p++ {
			u.Lookup(base + p*mem.PageBytes)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			u.Lookup(base + mem.Addr(i%8)*mem.PageBytes)
			i++
		}); allocs != 0 {
			t.Errorf("unmapped-page Lookup allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("peek", func(t *testing.T) {
		u := hotAMU(4, 8)
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			u.Peek(mem.Addr(i%4) * mem.PageBytes)
			i++
		}); allocs != 0 {
			t.Errorf("Peek allocates %.2f/op, want 0", allocs)
		}
	})
	t.Run("lookup-attributes", func(t *testing.T) {
		u := hotAMU(4, 8)
		g := NewGAT()
		g.LoadAtoms([]Atom{{ID: 0, Name: "a", Attrs: Attributes{Reuse: 1}}})
		u.SetGAT(g)
		u.Lookup(0)
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			u.LookupAttributes(mem.Addr(i%4) * mem.PageBytes)
			i++
		}); allocs != 0 {
			t.Errorf("LookupAttributes allocates %.2f/op, want 0", allocs)
		}
	})
}

// TestHotPathAAMFreshPages: mapping fresh ascending pages regrows the block
// slab, the per-block counts and the dense directory O(log n) times, not
// once or twice per page: 4,096 pages cost about 50 allocations, and about
// 75 under the race detector, which keeps slices.Grow's temporary (one
// object per page would be 4,096, one block and one header per page over
// 8,000).
func TestHotPathAAMFreshPages(t *testing.T) {
	const pages = 4096
	allocs := testing.AllocsPerRun(3, func() {
		m := NewAAM(512)
		for p := 0; p < pages; p++ {
			m.Map(mem.Addr(p)*mem.PageBytes, mem.PageBytes, AtomID(p%8))
		}
	})
	t.Logf("mapping %d fresh pages: %.0f allocations", pages, allocs)
	if allocs > 96 {
		t.Errorf("mapping %d fresh pages allocates %.0f objects, want <= 96 (O(log n) regrowth)", pages, allocs)
	}
}

// TestHotPathMapChurnAllocFree: a map/unmap cycle over an established
// footprint reuses pooled directory pages instead of allocating.
func TestHotPathMapChurnAllocFree(t *testing.T) {
	u := hotAMU(4, 8)
	// Establish the page pool: map and fully unmap once.
	u.ExecMap(1, 16*mem.PageBytes, 4*mem.PageBytes)
	u.ExecUnmap(1, 16*mem.PageBytes, 4*mem.PageBytes)
	if allocs := testing.AllocsPerRun(200, func() {
		u.ExecMap(1, 16*mem.PageBytes, 4*mem.PageBytes)
		u.ExecUnmap(1, 16*mem.PageBytes, 4*mem.PageBytes)
	}); allocs > 2 {
		// The broadcast's run slice is per-op by design (listeners may
		// retain it); everything else must reuse storage.
		t.Errorf("map/unmap churn allocates %.2f/op, want <= 2 (broadcast runs)", allocs)
	}
}
