// Package kernel models the OS pieces XMem interacts with: virtual memory
// (page tables and frame allocation), the atom-aware memory allocator of
// §4.1.2 (malloc carries an Atom ID so the OS knows data-structure
// boundaries before virtual pages are mapped), and the XMem placement
// policies: DRAM bank placement (§6.2), and the hybrid-memory tier and NUMA
// Home rules of Table 1.
package kernel

import (
	"errors"
	"math/rand"

	"xmem/internal/dram"
	"xmem/internal/mem"
)

// ErrOutOfMemory reports frame-allocator exhaustion.
var ErrOutOfMemory = errors.New("kernel: out of physical frames")

// FrameAllocator hands out physical page frames.
//
// Implementations are not safe for concurrent use: each simulated machine
// owns its allocator, and parallel experiment sweeps get isolation by
// building one machine per sweep point, never by sharing allocators.
type FrameAllocator interface {
	// AllocFrame returns the base address of a free frame. preferredBanks
	// (per-channel bank indexes) steers bank-aware allocators; others
	// ignore it. nil means no preference.
	AllocFrame(preferredBanks []int) (mem.Addr, error)
	// FreeFrames returns the number of unallocated frames.
	FreeFrames() int
}

// NewSequentialAllocator hands out the frames of physBytes of memory in
// address order — the simplest possible baseline (Buddy-like contiguity):
// a RegionAllocator over one region.
func NewSequentialAllocator(physBytes uint64) *RegionAllocator {
	return NewRegionAllocator(FrameRange{Bytes: physBytes})
}

// RandomizedAllocator hands out frames in a seeded random order — the
// strengthened baseline of §6.3 (randomized virtual-to-physical mapping,
// shown to beat the Buddy allocator [23]). All randomness is drawn from
// the rand.Rand the constructor builds; the package never touches the
// global math/rand state, so concurrent sweeps with per-point seeds cannot
// interfere with one another.
type RandomizedAllocator struct {
	free []uint64
}

// NewRandomizedAllocator covers physBytes with a deterministic shuffle
// derived from seed. Equal (physBytes, seed) always yields the same frame
// order.
func NewRandomizedAllocator(physBytes uint64, seed int64) *RandomizedAllocator {
	free := make([]uint64, physBytes/mem.PageBytes)
	for i := range free {
		free[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	return &RandomizedAllocator{free: free}
}

// AllocFrame implements FrameAllocator.
func (a *RandomizedAllocator) AllocFrame([]int) (mem.Addr, error) {
	if len(a.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return mem.Addr(f * mem.PageBytes), nil
}

// FreeFrames implements FrameAllocator.
func (a *RandomizedAllocator) FreeFrames() int { return len(a.free) }

// BankedAllocator groups frames by the DRAM bank they start in (using the
// controller's address mapping — the OS's knowledge of the underlying
// resources, §6.1) and serves requests from preferred banks round-robin.
// Within a bank, frames are handed out in address order, which keeps
// consecutive pages of a structure in consecutive rows.
type BankedAllocator struct {
	groups  [][]uint64 // per bank-group free frames, ascending
	heads   []int      // next index per group
	cursor  int        // round-robin position
	mapping *dram.Mapping
}

// NewBankedAllocator covers the geometry's capacity. Pages that span banks
// under the mapping are grouped by the bank of their first line; for the
// placement use case the scheme must keep a page within one (per-channel)
// bank group, which every "co"-low scheme does.
func NewBankedAllocator(mapping *dram.Mapping) *BankedAllocator {
	g := mapping.Geometry()
	nGroups := g.BanksPerChannel()
	a := &BankedAllocator{
		groups:  make([][]uint64, nGroups),
		heads:   make([]int, nGroups),
		mapping: mapping,
	}
	frames := g.CapacityBytes / mem.PageBytes
	for f := uint64(0); f < frames; f++ {
		loc := mapping.Map(mem.Addr(f * mem.PageBytes))
		grp := loc.BankIndex(g)
		a.groups[grp] = append(a.groups[grp], f)
	}
	return a
}

// Groups returns the number of bank groups.
func (a *BankedAllocator) Groups() int { return len(a.groups) }

// AllocFrame implements FrameAllocator.
func (a *BankedAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	if len(preferred) == 0 {
		preferred = make([]int, len(a.groups))
		for i := range preferred {
			preferred[i] = i
		}
	}
	// Round-robin across the preferred banks, skipping exhausted ones.
	for i := 0; i < len(preferred); i++ {
		grp := preferred[(a.cursor+i)%len(preferred)]
		if grp < 0 || grp >= len(a.groups) {
			continue
		}
		if a.heads[grp] < len(a.groups[grp]) {
			f := a.groups[grp][a.heads[grp]]
			a.heads[grp]++
			a.cursor = (a.cursor + i + 1) % len(preferred)
			return mem.Addr(f * mem.PageBytes), nil
		}
	}
	// Preferred banks exhausted: fall back to any bank.
	for grp := range a.groups {
		if a.heads[grp] < len(a.groups[grp]) {
			f := a.groups[grp][a.heads[grp]]
			a.heads[grp]++
			return mem.Addr(f * mem.PageBytes), nil
		}
	}
	return 0, ErrOutOfMemory
}

// FreeFrames implements FrameAllocator.
func (a *BankedAllocator) FreeFrames() int {
	n := 0
	for g := range a.groups {
		n += len(a.groups[g]) - a.heads[g]
	}
	return n
}

// FrameBank returns the bank group a frame belongs to.
func (a *BankedAllocator) FrameBank(frameBase mem.Addr) int {
	return a.mapping.Map(frameBase).BankIndex(a.mapping.Geometry())
}

// FrameRange is one region of physical memory a RegionAllocator draws
// frames from: the frames of the Bytes usable bytes starting at Base.
type FrameRange struct {
	Base  mem.Addr
	Bytes uint64
}

// RegionAllocator hands out frames from regions of physical memory: the
// nodes of a NUMA machine, the tiers of a hybrid memory, or one region
// holding all of it (NewSequentialAllocator). Preferred bank group i names
// region i. It tries the preferred regions in order, then round-robins over
// all regions (the classic OS default for pages nobody placed); within a
// region, frames go out in address order.
type RegionAllocator struct {
	regions []FrameRange
	used    []uint64
	rr      int
}

// NewRegionAllocator covers the given regions.
func NewRegionAllocator(regions ...FrameRange) *RegionAllocator {
	return &RegionAllocator{regions: regions, used: make([]uint64, len(regions))}
}

// AllocFrame implements FrameAllocator.
func (a *RegionAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	for _, r := range preferred {
		if f, ok := a.take(r); ok {
			return f, nil
		}
	}
	for i := range a.regions {
		r := (a.rr + i) % len(a.regions)
		if f, ok := a.take(r); ok {
			a.rr = (r + 1) % len(a.regions)
			return f, nil
		}
	}
	return 0, ErrOutOfMemory
}

// take hands out region r's next frame, if region r exists and has one left.
func (a *RegionAllocator) take(r int) (mem.Addr, bool) {
	if r < 0 || r >= len(a.regions) || a.used[r] >= a.regions[r].Bytes/mem.PageBytes {
		return 0, false
	}
	f := a.regions[r].Base + mem.Addr(a.used[r]*mem.PageBytes)
	a.used[r]++
	return f, true
}

// FreeFrames implements FrameAllocator.
func (a *RegionAllocator) FreeFrames() int {
	n := 0
	for r, fr := range a.regions {
		n += int(fr.Bytes/mem.PageBytes - a.used[r])
	}
	return n
}
