package kernel

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// PlacementPolicy steers where an allocation's pages land in DRAM.
type PlacementPolicy interface {
	// PreferredBanks returns the per-channel bank groups pages of the
	// given atom should be placed in; nil means no preference.
	PreferredBanks(atom core.AtomID) []int
}

// AddressSpace is a process' virtual memory: a page table over a frame
// allocator, plus the allocator-level atom knowledge of §4.1.2 (malloc takes
// an Atom ID, so the OS can place data-structure pages deliberately before
// they are ever touched).
type AddressSpace struct {
	// pages is the page table, indexed by virtual page number minus
	// vaBase's. VAs are handed out in increasing order and never unmapped,
	// so it only grows. An entry holds the frame base plus one, so that 0
	// marks an unmapped page (a guard page) while frame 0 stays mappable.
	pages  []mem.Addr
	nextVA mem.Addr
	alloc  FrameAllocator
	policy PlacementPolicy
}

// vaBase leaves the null page (and then some) unmapped.
const vaBase = mem.Addr(1 << 20)

// NewAddressSpace builds a process address space over the given allocator.
// policy may be nil (no placement steering).
func NewAddressSpace(alloc FrameAllocator, policy PlacementPolicy) *AddressSpace {
	return &AddressSpace{
		nextVA: vaBase,
		alloc:  alloc,
		policy: policy,
	}
}

// Translate implements core.AddressTranslator.
func (as *AddressSpace) Translate(va mem.Addr) (mem.Addr, bool) {
	// Below vaBase the index wraps past every mapped page.
	i := mem.PageIndex(va) - mem.PageIndex(vaBase)
	if i >= uint64(len(as.pages)) || as.pages[i] == 0 {
		return 0, false
	}
	return as.pages[i] - 1 + mem.Addr(mem.PageOffset(va)), true
}

// Malloc allocates size bytes tagged with the given atom and returns the
// virtual base address. Pages are mapped eagerly so the placement policy
// applies before first touch (§4.1.2: the augmented allocator lets the OS
// manipulate the virtual-to-physical mapping without extra system calls).
// The region is page-aligned with a guard page after it. A failed Malloc
// maps nothing.
func (as *AddressSpace) Malloc(name string, size uint64, atom core.AtomID) (mem.Addr, error) {
	if size == 0 {
		return 0, fmt.Errorf("kernel: zero-size malloc of %q", name)
	}
	base := as.nextVA
	npages := (size + mem.PageBytes - 1) / mem.PageBytes
	var preferred []int
	if as.policy != nil {
		preferred = as.policy.PreferredBanks(atom)
	}
	first := len(as.pages)
	for p := uint64(0); p < npages; p++ {
		frame, err := as.alloc.AllocFrame(preferred)
		if err != nil {
			as.pages = as.pages[:first]
			return 0, fmt.Errorf("kernel: malloc %q: %w", name, err)
		}
		as.pages = append(as.pages, frame+1)
	}
	// A guard page follows the region.
	as.pages = append(as.pages, 0)
	as.nextVA = base + mem.Addr(npages+1)*mem.PageBytes
	return base, nil
}

// MappedPages returns the number of mapped virtual pages.
func (as *AddressSpace) MappedPages() int {
	n := 0
	for _, f := range as.pages {
		if f != 0 {
			n++
		}
	}
	return n
}
