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
// shown to beat the Buddy allocator [23]). The order is rand.Shuffle's of
// the identity permutation, drawn from the rand.Rand the constructor
// builds; the package never touches the global math/rand state, so
// concurrent sweeps with per-point seeds cannot interfere with one another.
//
// The shuffle runs lazily. Shuffle finalizes the last position first and
// AllocFrame hands out the last free position, so each AllocFrame performs
// the one Fisher-Yates step that finalizes the position it hands out, with
// the draw Shuffle would make there. A point that maps a few pages pays for
// a few steps, not for a walk of every frame.
type RandomizedAllocator struct {
	// perm[i] holds the frame at position i XOR i, so the zeroed slice
	// is the identity permutation; positions below len(perm) are free.
	perm []uint32
	rng  *rand.Rand
}

// maxRandomizedFrames bounds the frames a RandomizedAllocator covers: up to
// here rand.Shuffle draws every index with its 31-bit method, which
// AllocFrame reproduces (8 TiB of 4 KiB pages).
const maxRandomizedFrames = 1<<31 - 1

// NewRandomizedAllocator covers physBytes with a deterministic shuffle
// derived from seed. Equal (physBytes, seed) always yields the same frame
// order: the order rand.Shuffle gives the frame numbers in ascending order.
func NewRandomizedAllocator(physBytes uint64, seed int64) *RandomizedAllocator {
	frames := physBytes / mem.PageBytes
	if frames > maxRandomizedFrames {
		panic("kernel: randomized allocator covers at most 2^31-1 frames")
	}
	return &RandomizedAllocator{
		perm: make([]uint32, frames),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// AllocFrame implements FrameAllocator.
func (a *RandomizedAllocator) AllocFrame([]int) (mem.Addr, error) {
	i := len(a.perm) - 1
	if i < 0 {
		return 0, ErrOutOfMemory
	}
	// Shuffle's step i: swap position i with a position j <= i. Position
	// i is handed out now, so only position j needs writing back.
	f := a.perm[i] ^ uint32(i)
	if i > 0 {
		j := a.int31n(uint32(i + 1))
		f, a.perm[j] = a.perm[j]^j, f^j
	}
	a.perm = a.perm[:i]
	return mem.Addr(uint64(f) * mem.PageBytes), nil
}

// int31n is rand.(*Rand).int31n, which rand.Shuffle draws with: a value in
// [0, n) from one Uint32, redrawn only to remove bias.
func (a *RandomizedAllocator) int31n(n uint32) uint32 {
	prod := uint64(a.rng.Uint32()) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n
		for low < thresh {
			prod = uint64(a.rng.Uint32()) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// FreeFrames implements FrameAllocator.
func (a *RandomizedAllocator) FreeFrames() int { return len(a.perm) }

// BankedAllocator groups frames by the DRAM bank they start in (using the
// controller's address mapping — the OS's knowledge of the underlying
// resources, §6.1) and serves requests from preferred banks round-robin.
// Within a bank, frames are handed out in address order, which keeps
// consecutive pages of a structure in consecutive rows.
//
// No frame is listed up front: each bank group keeps a cursor, the lowest
// frame it has not yet ruled out, and a request scans forward from it for
// the next frame whose first line maps to the group. The mapping's
// Mapping.BankIndex reads only the bank bits, so a scan is a few shifts
// per frame, and each group's cursor passes each frame at most once.
type BankedAllocator struct {
	next    []uint64 // per bank group: the lowest frame not yet ruled out
	frames  uint64   // frames in the geometry
	free    int      // frames not yet handed out
	cursor  int      // round-robin position
	mapping *dram.Mapping
}

// NewBankedAllocator covers the geometry's capacity. Pages that span banks
// under the mapping are grouped by the bank of their first line; for the
// placement use case the scheme must keep a page within one (per-channel)
// bank group, which every "co"-low scheme does.
func NewBankedAllocator(mapping *dram.Mapping) *BankedAllocator {
	g := mapping.Geometry()
	frames := g.CapacityBytes / mem.PageBytes
	return &BankedAllocator{
		next:    make([]uint64, g.BanksPerChannel()),
		frames:  frames,
		free:    int(frames),
		mapping: mapping,
	}
}

// Groups returns the number of bank groups.
func (a *BankedAllocator) Groups() int { return len(a.next) }

// AllocFrame implements FrameAllocator. With no preference, every bank
// group is preferred, in group order.
func (a *BankedAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	n := len(preferred)
	if n == 0 {
		n = len(a.next)
	}
	// Round-robin across the preferred banks, skipping exhausted ones.
	for i := 0; i < n; i++ {
		k := (a.cursor + i) % n
		grp := k
		if len(preferred) > 0 {
			grp = preferred[k]
		}
		if f, ok := a.take(grp); ok {
			a.cursor = (k + 1) % n
			return f, nil
		}
	}
	// Preferred banks exhausted: fall back to any bank.
	for grp := range a.next {
		if f, ok := a.take(grp); ok {
			return f, nil
		}
	}
	return 0, ErrOutOfMemory
}

// take hands out bank group grp's lowest free frame, if group grp exists
// and has one left.
func (a *BankedAllocator) take(grp int) (mem.Addr, bool) {
	if grp < 0 || grp >= len(a.next) {
		return 0, false
	}
	for f := a.next[grp]; f < a.frames; f++ {
		if pa := mem.Addr(f * mem.PageBytes); a.mapping.BankIndex(pa) == grp {
			a.next[grp] = f + 1
			a.free--
			return pa, true
		}
	}
	a.next[grp] = a.frames
	return 0, false
}

// FreeFrames implements FrameAllocator.
func (a *BankedAllocator) FreeFrames() int { return a.free }

// FrameBank returns the bank group a frame belongs to.
func (a *BankedAllocator) FrameBank(frameBase mem.Addr) int {
	return a.mapping.BankIndex(frameBase)
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
