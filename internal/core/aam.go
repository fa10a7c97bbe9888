package core

import (
	"slices"

	"xmem/internal/mem"
)

// DefaultGranularityBytes is the smallest address-range unit the AAM tracks
// per atom mapping. The paper's system granularity is 8 cache lines = 512 B
// (§4.2), giving a 0.2% storage overhead with 8-bit atom IDs.
const DefaultGranularityBytes = 512

// maxDirectPages bounds the dense page directory: pages below this index
// (the first 8 GiB of physical address space) live in a flat slice grown on
// demand, so Lookup is two array indexes — the software twin of the
// hardware AAM being a flat PA-indexed array (§4.2). Pages at or above the
// bound (synthetic far-flung test addresses) fall back to a sparse map off
// the hot path.
const maxDirectPages = 1 << 21

// AAM is the Atom Address Map (§4.2 component 1): it resolves a physical
// address to the atom (if any) most recently mapped over it. The map is
// approximate — each granularity-sized chunk maps to at most one atom — and
// purely supplemental, so imprecision can affect only optimization quality,
// never correctness.
//
// Layout: a page directory over one slab of chunk blocks instead of a hash
// map, so the per-access Lookup is two array indexes with no hashing, no
// allocation, and no interface boxing. A block holds one physical page's
// chunk→atom associations: the unit an ALB entry caches. See DESIGN.md,
// "Hot path".
type AAM struct {
	granBytes uint64
	granShift uint
	// chunksPerPage = PageBytes / granBytes; granularity is capped at the
	// page size so every page has at least one chunk.
	chunksPerPage uint64
	// dir is the dense directory, indexed by page index, grown on demand.
	// An entry holds the page's block number plus one; 0 means no chunk
	// in the page is mapped (or the page was never touched).
	dir []uint32
	// overflow holds the entries of pages with index >= maxDirectPages,
	// in the same encoding.
	overflow map[uint64]uint32
	// atoms is the slab: block b's chunks are
	// atoms[b*chunksPerPage : (b+1)*chunksPerPage], and an unmapped chunk
	// holds InvalidAtom.
	atoms []AtomID
	// mapped counts each block's entries != InvalidAtom, so page teardown
	// needs no scan.
	mapped []uint32
	// mappedChunks counts chunks currently mapped per atom; the working
	// set size of an atom is inferred from it (§3.3 class 3).
	mappedChunks PerAtom[uint64]
	// freeBlocks pools the blocks dropped by the last unmap of their
	// chunks. A pooled block is all-InvalidAtom by construction
	// (mapped == 0), so reuse needs no clearing and map/unmap churn
	// settles to zero allocations.
	freeBlocks []uint32
}

// NewAAM returns an AAM with the given chunk granularity, which must be a
// power of two between one cache line and one page. Pass 0 for the paper
// default (512 B).
func NewAAM(granBytes uint64) *AAM {
	if granBytes == 0 {
		granBytes = DefaultGranularityBytes
	}
	if granBytes < mem.LineBytes || granBytes > mem.PageBytes || granBytes&(granBytes-1) != 0 {
		panic("core: AAM granularity must be a power of two in [line size, page size]")
	}
	shift := uint(0)
	for g := granBytes; g > 1; g >>= 1 {
		shift++
	}
	return &AAM{
		granBytes:     granBytes,
		granShift:     shift,
		chunksPerPage: uint64(mem.PageBytes) / granBytes,
	}
}

// GranularityBytes returns the chunk size.
func (m *AAM) GranularityBytes() uint64 { return m.granBytes }

// ChunksPerPage returns the number of AAM chunks in one page — the length
// of every PageAtoms result and of every ALB entry's data array.
func (m *AAM) ChunksPerPage() int { return int(m.chunksPerPage) }

// chunkRange returns the inclusive first and exclusive last chunk index
// covered by [pa, pa+size).
func (m *AAM) chunkRange(pa mem.Addr, size uint64) (first, last uint64) {
	first = uint64(pa) >> m.granShift
	last = (uint64(pa) + size + m.granBytes - 1) >> m.granShift
	if size == 0 {
		last = first
	}
	return first, last
}

// entry returns the directory entry for pageIdx: its block number plus
// one, or 0 when no chunk in the page is mapped.
//
//xmem:allocfree
//xmem:statsneutral
func (m *AAM) entry(pageIdx uint64) uint32 {
	if pageIdx < uint64(len(m.dir)) {
		return m.dir[pageIdx]
	}
	if pageIdx >= maxDirectPages {
		return m.overflow[pageIdx]
	}
	return 0
}

// block returns block b's chunks as a full slice expression, so a caller
// can read or copy them but never append into the next block.
//
//xmem:allocfree
//xmem:statsneutral
func (m *AAM) block(b uint32) []AtomID {
	lo := uint64(b) * m.chunksPerPage
	hi := lo + m.chunksPerPage
	return m.atoms[lo:hi:hi]
}

// page returns the chunks of page pageIdx, or nil when no chunk in the
// page is mapped. This is the AMU's ALB-miss walk: one bounds check and
// two indexes on the dense path.
//
//xmem:allocfree
//xmem:statsneutral
func (m *AAM) page(pageIdx uint64) []AtomID {
	e := m.entry(pageIdx)
	if e == 0 {
		return nil
	}
	return m.block(e - 1)
}

// ensureBlock returns the block of page pageIdx, taking one (and growing
// the dense directory) if needed. Only Map reaches this.
//
//xmem:alloc-ok cold pool-refill path: the slab, the per-block counts and the dense directory grow geometrically, so n ascending pages reallocate them O(log n) times (TestAAMDirectoryGrowsGeometrically, TestHotPathAAMFreshPages); steady-state churn reuses freeBlocks (TestHotPathMapChurnAllocFree)
func (m *AAM) ensureBlock(pageIdx uint64) uint32 {
	if e := m.entry(pageIdx); e != 0 {
		return e - 1
	}
	var b uint32
	if n := len(m.freeBlocks); n > 0 {
		b = m.freeBlocks[n-1]
		m.freeBlocks = m.freeBlocks[:n-1]
	} else {
		b = uint32(len(m.mapped))
		m.mapped = append(m.mapped, 0)
		for i := uint64(0); i < m.chunksPerPage; i++ {
			m.atoms = append(m.atoms, InvalidAtom)
		}
	}
	if pageIdx < maxDirectPages {
		if n := uint64(len(m.dir)); pageIdx >= n {
			// Entries past len are 0: the directory never shrinks.
			m.dir = slices.Grow(m.dir, int(pageIdx+1-n))[:pageIdx+1]
		}
		m.dir[pageIdx] = b + 1
	} else {
		if m.overflow == nil {
			m.overflow = make(map[uint64]uint32)
		}
		m.overflow[pageIdx] = b + 1
	}
	return b
}

// dropIfEmpty frees the page's directory slot once its last chunk unmaps,
// so a long-running sim's directory tracks the live footprint.
func (m *AAM) dropIfEmpty(pageIdx uint64, b uint32) {
	if m.mapped[b] != 0 {
		return
	}
	if pageIdx < uint64(len(m.dir)) {
		m.dir[pageIdx] = 0
	} else {
		delete(m.overflow, pageIdx)
	}
	m.freeBlocks = append(m.freeBlocks, b) //xmem:alloc-ok pool return: freeBlocks grows only to the high-water block count, then reuses capacity
}

// chunkPage splits a global chunk index into its page and the chunk's slot
// within that page.
func (m *AAM) chunkPage(c uint64) (pageIdx, slot uint64) {
	perPage := m.chunksPerPage
	return c / perPage, c % perPage
}

// Map associates every chunk overlapping [pa, pa+size) with atom id,
// displacing any previous association (the many-to-one VA-atom invariant of
// §3.2: a chunk maps to at most one atom at a time).
//
//xmem:allocfree
func (m *AAM) Map(pa mem.Addr, size uint64, id AtomID) {
	first, last := m.chunkRange(pa, size)
	for c := first; c < last; c++ {
		pageIdx, slot := m.chunkPage(c)
		b := m.ensureBlock(pageIdx)
		i := uint64(b)*m.chunksPerPage + slot
		if prev := m.atoms[i]; prev != InvalidAtom {
			if prev == id {
				continue
			}
			m.decMapped(prev)
			m.mapped[b]--
		}
		m.atoms[i] = id
		m.mapped[b]++
		*m.mappedChunks.At(id)++ //xmem:alloc-ok the table grows only to the highest atom ID mapped; churn over an established footprint reuses its entries
	}
}

// Unmap removes the association of atom id from every chunk overlapping
// [pa, pa+size). Chunks mapped to a different atom are left untouched, so
// an atom can be unmapped without disturbing later remappings.
//
//xmem:allocfree
func (m *AAM) Unmap(pa mem.Addr, size uint64, id AtomID) {
	first, last := m.chunkRange(pa, size)
	for c := first; c < last; c++ {
		pageIdx, slot := m.chunkPage(c)
		e := m.entry(pageIdx)
		if e == 0 {
			continue
		}
		b := e - 1
		if i := uint64(b)*m.chunksPerPage + slot; m.atoms[i] == id {
			m.atoms[i] = InvalidAtom
			m.mapped[b]--
			m.decMapped(id)
			m.dropIfEmpty(pageIdx, b)
		}
	}
}

func (m *AAM) decMapped(id AtomID) {
	*m.mappedChunks.At(id)-- //xmem:alloc-ok the atom has a mapped chunk, so its entry exists and At never grows the table here
}

// Lookup returns the atom mapped over physical address pa, if any. This is
// the per-access hot path: two array indexes, no allocation.
//
//xmem:allocfree
//xmem:statsneutral
func (m *AAM) Lookup(pa mem.Addr) (AtomID, bool) {
	e := m.entry(uint64(pa) >> mem.PageShift)
	if e == 0 {
		return InvalidAtom, false
	}
	id := m.atoms[uint64(e-1)*m.chunksPerPage+mem.PageOffset(pa)>>m.granShift]
	return id, id != InvalidAtom
}

// MappedBytes returns the number of bytes currently mapped to atom id,
// rounded up to chunk granularity. This is the atom's working-set size as
// seen by the system.
func (m *AAM) MappedBytes(id AtomID) uint64 {
	return m.mappedChunks.Get(id) * m.granBytes
}

// MappedAtoms returns the IDs of all atoms with at least one mapped chunk,
// in ascending order. It allocates a fresh slice per call and is meant for
// OS-layer policy (pin-controller recomputes) and introspection, never the
// per-access hot path — use Lookup there.
func (m *AAM) MappedAtoms() []AtomID {
	var ids []AtomID
	for i, n := range m.mappedChunks.v {
		if n > 0 {
			ids = append(ids, AtomID(i))
		}
	}
	return ids
}

// PageAtoms returns the atom ID of each chunk in the page containing pa, in
// chunk order. A chunk with no atom reports InvalidAtom. This is the unit an
// ALB entry caches (§4.2: "the data are the Atom IDs in the physical
// pages"). It allocates a fresh slice per call and serves the invariant
// checker; the AMU's ALB-miss path instead hands the ALB the page's own
// block to copy from (see AMU.Lookup).
func (m *AAM) PageAtoms(pa mem.Addr) []AtomID {
	out := make([]AtomID, m.chunksPerPage)
	if p := m.page(uint64(pa) >> mem.PageShift); p != nil {
		copy(out, p)
		return out
	}
	for i := range out {
		out[i] = InvalidAtom
	}
	return out
}

// StorageOverheadBytes returns the memory the AAM would occupy in hardware
// for a machine with physBytes of physical memory and the given atom-ID
// width in bits (§4.4: 8-bit IDs at 512 B granularity cost 0.2% of physical
// memory).
func (m *AAM) StorageOverheadBytes(physBytes uint64, idBits uint) uint64 {
	chunks := physBytes / m.granBytes
	return chunks * uint64(idBits) / 8
}
