package core

import (
	"container/list"
	"sort"

	"xmem/internal/mem"
)

// This file preserves the pre-paged-directory AAM and the container/list
// ALB verbatim (plus an eviction counter) as test-only reference models.
// The differential tests drive the shipped stack and these references
// through identical op streams and assert bit-identical results, counters,
// and LRU victim order — the headline correctness claim of the hot-path
// rewrite (see DESIGN.md, "Hot path").

// refAAM is the original hash-map AAM: chunk index → atom ID.
type refAAM struct {
	granBytes    uint64
	granShift    uint
	chunks       map[uint64]AtomID
	mappedChunks map[AtomID]uint64
}

func newRefAAM(granBytes uint64) *refAAM {
	if granBytes == 0 {
		granBytes = DefaultGranularityBytes
	}
	shift := uint(0)
	for g := granBytes; g > 1; g >>= 1 {
		shift++
	}
	return &refAAM{
		granBytes:    granBytes,
		granShift:    shift,
		chunks:       make(map[uint64]AtomID),
		mappedChunks: make(map[AtomID]uint64),
	}
}

func (m *refAAM) chunkRange(pa mem.Addr, size uint64) (first, last uint64) {
	first = uint64(pa) >> m.granShift
	last = (uint64(pa) + size + m.granBytes - 1) >> m.granShift
	if size == 0 {
		last = first
	}
	return first, last
}

func (m *refAAM) Map(pa mem.Addr, size uint64, id AtomID) {
	first, last := m.chunkRange(pa, size)
	for c := first; c < last; c++ {
		if prev, ok := m.chunks[c]; ok {
			if prev == id {
				continue
			}
			m.decMapped(prev)
		}
		m.chunks[c] = id
		m.mappedChunks[id]++
	}
}

func (m *refAAM) Unmap(pa mem.Addr, size uint64, id AtomID) {
	first, last := m.chunkRange(pa, size)
	for c := first; c < last; c++ {
		if cur, ok := m.chunks[c]; ok && cur == id {
			delete(m.chunks, c)
			m.decMapped(id)
		}
	}
}

func (m *refAAM) decMapped(id AtomID) {
	if n := m.mappedChunks[id]; n <= 1 {
		delete(m.mappedChunks, id)
	} else {
		m.mappedChunks[id] = n - 1
	}
}

func (m *refAAM) Lookup(pa mem.Addr) (AtomID, bool) {
	id, ok := m.chunks[uint64(pa)>>m.granShift]
	return id, ok
}

func (m *refAAM) MappedBytes(id AtomID) uint64 {
	return m.mappedChunks[id] * m.granBytes
}

// MappedAtoms returns the atoms with a mapped chunk, sorted by ID.
func (m *refAAM) MappedAtoms() []AtomID {
	var ids []AtomID
	for id := range m.mappedChunks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (m *refAAM) PageAtoms(pa mem.Addr) []AtomID {
	chunksPerPage := uint64(mem.PageBytes) / m.granBytes
	base := (uint64(pa) >> mem.PageShift) * chunksPerPage
	ids := make([]AtomID, chunksPerPage)
	for i := range ids {
		if id, ok := m.chunks[base+uint64(i)]; ok {
			ids[i] = id
		} else {
			ids[i] = InvalidAtom
		}
	}
	return ids
}

// refALB is the original container/list + pointer-map ALB. An eviction
// counter and victim log are added so victim order can be asserted against
// the index-based implementation.
type refALB struct {
	entries   int
	lru       *list.List
	byPage    map[uint64]*list.Element
	hits      uint64
	misses    uint64
	flushes   uint64
	invalids  uint64
	evictions uint64
	victims   []uint64 // evicted page indexes, in order
}

type refALBEntry struct {
	page  uint64
	atoms []AtomID
}

func newRefALB(entries int) *refALB {
	if entries <= 0 {
		entries = DefaultALBEntries
	}
	return &refALB{
		entries: entries,
		lru:     list.New(),
		byPage:  make(map[uint64]*list.Element, entries),
	}
}

func (b *refALB) Lookup(pa mem.Addr, granBytes uint64) (AtomID, bool, bool) {
	page := mem.PageIndex(pa)
	el, ok := b.byPage[page]
	if !ok {
		b.misses++
		return InvalidAtom, false, false
	}
	b.hits++
	b.lru.MoveToFront(el)
	e := el.Value.(*refALBEntry)
	idx := mem.PageOffset(pa) / granBytes
	if idx >= uint64(len(e.atoms)) {
		return InvalidAtom, false, true
	}
	id := e.atoms[idx]
	return id, id != InvalidAtom, true
}

// Fill copies atoms (matching the shipped ALB's aliasing fix) so both
// models stay comparable when the differential test mutates its buffer.
func (b *refALB) Fill(pa mem.Addr, atoms []AtomID) {
	page := mem.PageIndex(pa)
	owned := append([]AtomID(nil), atoms...)
	if el, ok := b.byPage[page]; ok {
		el.Value.(*refALBEntry).atoms = owned
		b.lru.MoveToFront(el)
		return
	}
	if b.lru.Len() >= b.entries {
		victim := b.lru.Back()
		b.lru.Remove(victim)
		vp := victim.Value.(*refALBEntry).page
		delete(b.byPage, vp)
		b.evictions++
		b.victims = append(b.victims, vp)
	}
	b.byPage[page] = b.lru.PushFront(&refALBEntry{page: page, atoms: owned})
}

func (b *refALB) Covers(pa mem.Addr) bool {
	_, ok := b.byPage[mem.PageIndex(pa)]
	return ok
}

func (b *refALB) InvalidatePage(pa mem.Addr) {
	page := mem.PageIndex(pa)
	if el, ok := b.byPage[page]; ok {
		b.lru.Remove(el)
		delete(b.byPage, page)
		b.invalids++
	}
}

func (b *refALB) Flush() {
	b.lru.Init()
	b.byPage = make(map[uint64]*list.Element, b.entries)
	b.flushes++
}

func (b *refALB) Len() int { return b.lru.Len() }

// lruPages returns the resident page indexes from most to least recently
// used.
func (b *refALB) lruPages() []uint64 {
	var out []uint64
	for el := b.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refALBEntry).page)
	}
	return out
}

// lruPages is the shipped ALB's counterpart: the intrusive list walked from
// MRU head to LRU tail. Test-only.
func (b *ALB) lruPages() []uint64 {
	var out []uint64
	for i := b.head; i != albNil; i = b.slots[i].next {
		out = append(out, b.slots[i].page)
	}
	return out
}

// refAMU mirrors the AMU's lookup protocol (ALB first, AAM walk + fill on
// miss) over the reference structures, with the same stat counters. Its
// AST is a map that, like the paper's 256-bit table, ignores IDs at or
// above MaxAtoms.
type refAMU struct {
	aam    *refAAM
	alb    *refALB
	active map[AtomID]bool
	stats  AMUStats
}

func newRefAMU(gran uint64, albEntries int) *refAMU {
	return &refAMU{
		aam:    newRefAAM(gran),
		alb:    newRefALB(albEntries),
		active: make(map[AtomID]bool),
	}
}

func (u *refAMU) Lookup(pa mem.Addr) (AtomID, bool) {
	u.stats.Lookups++
	id, mapped, hit := u.alb.Lookup(pa, u.aam.granBytes)
	if !hit {
		u.stats.AAMAccesses++
		u.alb.Fill(pa, u.aam.PageAtoms(pa))
		var ok bool
		id, ok = u.aam.Lookup(pa)
		mapped = ok
	}
	if !mapped || !u.active[id] {
		return InvalidAtom, false
	}
	return id, true
}

func (u *refAMU) applyRuns(id AtomID, runs []PARange, unmap bool) {
	for _, r := range runs {
		if unmap {
			u.aam.Unmap(r.Base, r.Size, id)
		} else {
			u.aam.Map(r.Base, r.Size, id)
		}
		for pa := mem.PageAddr(r.Base); pa < r.End(); pa += mem.PageBytes {
			u.alb.InvalidatePage(pa)
		}
	}
}

func (u *refAMU) ExecMap(id AtomID, pa mem.Addr, size uint64) {
	u.stats.MapOps++
	u.applyRuns(id, []PARange{{Base: pa, Size: size}}, false)
}

func (u *refAMU) ExecUnmap(id AtomID, pa mem.Addr, size uint64) {
	u.stats.UnmapOps++
	u.applyRuns(id, []PARange{{Base: pa, Size: size}}, true)
}

func (u *refAMU) ExecActivate(id AtomID) {
	u.stats.ActivateOps++
	if id < MaxAtoms {
		u.active[id] = true
	}
}

func (u *refAMU) ExecDeactivate(id AtomID) { u.stats.DeactivateOps++; delete(u.active, id) }

func (u *refAMU) Flush() { u.alb.Flush() }

func (u *refAMU) ActiveMappedAtoms() []AtomID {
	var out []AtomID
	for _, id := range u.aam.MappedAtoms() {
		if u.active[id] {
			out = append(out, id)
		}
	}
	return out
}
