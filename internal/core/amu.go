package core

import (
	"sort"

	"xmem/internal/mem"
)

// AddressTranslator resolves virtual addresses to physical addresses. The
// AMU asks the MMU to translate the ranges named by ATOM_MAP instructions
// before updating the AAM (§4.1.3).
type AddressTranslator interface {
	// Translate returns the physical address backing va, or false when va
	// is unmapped. XMem is hint-based: unmapped portions of an atom range
	// are skipped, never faulted on.
	Translate(va mem.Addr) (mem.Addr, bool)
}

// PARange is a contiguous run of physical addresses.
type PARange struct {
	Base mem.Addr
	Size uint64
}

// End returns the first address past the range.
func (r PARange) End() mem.Addr { return r.Base + mem.Addr(r.Size) }

// MapEvent describes an atom mapping change broadcast to hardware
// components that need accurate higher-dimensional address information
// (§4.2: the AMU converts multi-dimensional mappings to linear mappings at
// AAM granularity and broadcasts them).
type MapEvent struct {
	// ID is the affected atom.
	ID AtomID
	// Ranges are the linearized physical ranges, base-sorted.
	Ranges []PARange
	// VABase is the virtual base address of the mapping (components such
	// as the XMem prefetcher follow virtual-contiguous strides).
	VABase mem.Addr
	// SizeX, SizeY, SizeZ, LenX, LenXY describe the logical dimensions in
	// bytes for 2D/3D mappings; SizeY and SizeZ are 1 for lower
	// dimensions.
	SizeX, SizeY, SizeZ uint64
	LenX, LenXY         uint64
	// Unmap is true when the ranges were removed rather than added.
	Unmap bool
}

// MappingListener is implemented by components (cache controller,
// prefetcher, memory controller) that react to atom mapping and status
// changes.
type MappingListener interface {
	// AtomMapping delivers a map or unmap broadcast.
	AtomMapping(ev MapEvent)
	// AtomStatus reports an activation or deactivation.
	AtomStatus(id AtomID, active bool)
}

// AMUStats counts the work the Atom Management Unit performs.
type AMUStats struct {
	// MapOps, UnmapOps, ActivateOps, DeactivateOps count executed XMem
	// ISA instructions by type.
	MapOps, UnmapOps, ActivateOps, DeactivateOps uint64
	// Lookups counts ATOM_LOOKUP requests from hardware components.
	Lookups uint64
	// AAMAccesses counts lookups that missed the ALB and read the AAM.
	AAMAccesses uint64
}

// AMU is the Atom Management Unit (§4.2 component 4): the hardware unit that
// manages the AAM and AST, executes the XMem ISA instructions, and serves
// ATOM_LOOKUP requests through the ALB.
type AMU struct {
	aam       *AAM
	ast       *AtomSet
	alb       *ALB
	gat       *GAT
	mmu       AddressTranslator
	listeners []MappingListener
	stats     AMUStats
	// emptyPage is a reusable all-InvalidAtom page image, handed to the
	// ALB (which copies it) when a lookup misses on a page with no AAM
	// entry. It is written once at construction and never mutated, so the
	// ALB-miss fill path allocates nothing.
	emptyPage []AtomID
}

// AMUConfig sizes the AMU's structures. Zero values select paper defaults.
type AMUConfig struct {
	// AAMGranularityBytes is the AAM chunk size (default 512 B).
	AAMGranularityBytes uint64
	// ALBEntries is the lookaside buffer size (default 256).
	ALBEntries int
}

// NewAMU builds an AMU over the given MMU. The GAT is attached separately at
// program load (SetGAT), mirroring the OS loading the atom segment.
func NewAMU(mmu AddressTranslator, cfg AMUConfig) *AMU {
	u := &AMU{
		aam: NewAAM(cfg.AAMGranularityBytes),
		ast: new(AtomSet),
		alb: NewALB(cfg.ALBEntries),
		gat: NewGAT(),
		mmu: mmu,
	}
	u.emptyPage = make([]AtomID, u.aam.ChunksPerPage())
	for i := range u.emptyPage {
		u.emptyPage[i] = InvalidAtom
	}
	return u
}

// SetGAT installs the process' Global Attribute Table (done by the OS at
// load time and on context switch, §4.3).
func (u *AMU) SetGAT(g *GAT) { u.gat = g }

// GAT returns the installed attribute table.
func (u *AMU) GAT() *GAT { return u.gat }

// AAM exposes the address map (for OS placement decisions and tests).
func (u *AMU) AAM() *AAM { return u.aam }

// AST exposes the status table: the set of active atoms.
func (u *AMU) AST() *AtomSet { return u.ast }

// ALB exposes the lookaside buffer (for stats).
func (u *AMU) ALB() *ALB { return u.alb }

// Stats returns the cumulative operation counts.
func (u *AMU) Stats() AMUStats { return u.stats }

// Subscribe registers a component for mapping and status broadcasts.
func (u *AMU) Subscribe(l MappingListener) { u.listeners = append(u.listeners, l) }

// translateRuns converts the virtual range [va, va+size) into coalesced
// physical runs, skipping unmapped pages.
func (u *AMU) translateRuns(va mem.Addr, size uint64, runs []PARange) []PARange {
	if size == 0 || u.mmu == nil {
		return runs
	}
	end := va + mem.Addr(size)
	for cur := va; cur < end; {
		pageEnd := mem.PageAddr(cur) + mem.PageBytes
		stop := end
		if pageEnd < stop {
			stop = pageEnd
		}
		if pa, ok := u.mmu.Translate(cur); ok {
			n := uint64(stop - cur)
			if k := len(runs); k > 0 && runs[k-1].End() == pa {
				runs[k-1].Size += n
			} else {
				runs = append(runs, PARange{Base: pa, Size: n})
			}
		}
		cur = stop
	}
	return runs
}

func coalesce(runs []PARange) []PARange {
	if len(runs) < 2 {
		return runs
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Base < runs[j].Base })
	out := runs[:1]
	for _, r := range runs[1:] {
		if last := &out[len(out)-1]; last.End() == r.Base {
			last.Size += r.Size
		} else {
			out = append(out, r)
		}
	}
	return out
}

// applyRuns updates the AAM and invalidates affected ALB pages.
func (u *AMU) applyRuns(id AtomID, runs []PARange, unmap bool) {
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

func (u *AMU) broadcast(ev MapEvent) {
	for _, l := range u.listeners {
		l.AtomMapping(ev)
	}
}

// ExecMap executes ATOM_MAP for a 1D range [va, va+size).
func (u *AMU) ExecMap(id AtomID, va mem.Addr, size uint64) {
	u.execMap(id, va, size, 1, 1, size, size, false)
}

// ExecUnmap executes ATOM_UNMAP for a 1D range.
func (u *AMU) ExecUnmap(id AtomID, va mem.Addr, size uint64) {
	u.execMap(id, va, size, 1, 1, size, size, true)
}

// execMap executes ATOM_MAP or ATOM_UNMAP over a block of sizeZ planes of
// sizeY rows of sizeX bytes, with rows lenX and planes lenXY bytes apart
// (a 1D range is one row, a 2D block one plane). It linearizes the block
// into coalesced physical runs, applies them to the AAM, invalidates the
// ALB pages they touch and broadcasts the change (§4.2).
func (u *AMU) execMap(id AtomID, va mem.Addr, sizeX, sizeY, sizeZ, lenX, lenXY uint64, unmap bool) {
	if unmap {
		u.stats.UnmapOps++
	} else {
		u.stats.MapOps++
	}
	var runs []PARange
	for z := uint64(0); z < sizeZ; z++ {
		for y := uint64(0); y < sizeY; y++ {
			rowVA := va + mem.Addr(z*lenXY+y*lenX)
			runs = u.translateRuns(rowVA, sizeX, runs)
		}
	}
	runs = coalesce(runs)
	u.applyRuns(id, runs, unmap)
	u.broadcast(MapEvent{
		ID: id, Ranges: runs, VABase: va,
		SizeX: sizeX, SizeY: sizeY, SizeZ: sizeZ, LenX: lenX, LenXY: lenXY,
		Unmap: unmap,
	})
}

// ExecActivate executes ATOM_ACTIVATE: the atom's attributes become valid
// for all data it is mapped to.
func (u *AMU) ExecActivate(id AtomID) {
	u.stats.ActivateOps++
	u.ast.Add(id)
	for _, l := range u.listeners {
		l.AtomStatus(id, true)
	}
}

// ExecDeactivate executes ATOM_DEACTIVATE.
func (u *AMU) ExecDeactivate(id AtomID) {
	u.stats.DeactivateOps++
	u.ast.Remove(id)
	for _, l := range u.listeners {
		l.AtomStatus(id, false)
	}
}

// Lookup serves an ATOM_LOOKUP request for physical address pa: it returns
// the active atom mapped over pa, if any. The ALB is consulted first; only
// misses read the AAM (§4.2). The path is allocation-free: a miss hands the
// ALB the AAM page's own chunk array (or the AMU's constant empty-page
// image) to copy into slot-owned storage.
//
//xmem:allocfree
func (u *AMU) Lookup(pa mem.Addr) (AtomID, bool) {
	u.stats.Lookups++
	id, mapped, hit := u.alb.Lookup(pa, u.aam.granBytes)
	if !hit {
		u.stats.AAMAccesses++
		if p := u.aam.page(uint64(pa) >> mem.PageShift); p != nil {
			u.alb.Fill(pa, p.atoms)
			id = p.atoms[mem.PageOffset(pa)>>u.aam.granShift]
			mapped = id != InvalidAtom
		} else {
			u.alb.Fill(pa, u.emptyPage)
			id, mapped = InvalidAtom, false
		}
	}
	if !mapped || !u.ast.Has(id) {
		return InvalidAtom, false
	}
	return id, true
}

// Peek resolves pa to its active atom without modeling an ATOM_LOOKUP: no
// ALB access, no stats. The observability layer uses it so attribution
// never perturbs the simulated hardware counters it is attributing.
//
//xmem:allocfree
//xmem:statsneutral
func (u *AMU) Peek(pa mem.Addr) (AtomID, bool) {
	id, ok := u.aam.Lookup(pa)
	if !ok || !u.ast.Has(id) {
		return InvalidAtom, false
	}
	return id, true
}

// LookupAttributes combines Lookup with a GAT read, returning the active
// atom's attributes for pa.
//
//xmem:allocfree
func (u *AMU) LookupAttributes(pa mem.Addr) (AtomID, Attributes, bool) {
	id, ok := u.Lookup(pa)
	if !ok {
		return InvalidAtom, Attributes{}, false
	}
	return id, u.gat.Attributes(id), true
}

// ActiveMappedAtoms returns the atoms that are both active and mapped, in
// ascending order — the input to the cache pinning algorithm (§5.2).
func (u *AMU) ActiveMappedAtoms() []AtomID {
	var out []AtomID
	for _, id := range u.ast.IDs() {
		if u.aam.MappedBytes(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// ContextSwitch models the §4.3/§4.4 context-switch work: flush the ALB and
// install the incoming process' GAT and AST state.
func (u *AMU) ContextSwitch(gat *GAT, ast *AtomSet) {
	u.alb.Flush()
	u.gat = gat
	u.ast = ast
}
