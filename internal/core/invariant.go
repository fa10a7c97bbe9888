package core

import (
	"fmt"

	"xmem/internal/mem"
)

// InvariantChecker is the runtime twin of the static checks in
// internal/analysis (cmd/xmem-vet): after every XMemLib operation it
// cross-validates the AMU's metadata structures — AAM chunk bookkeeping,
// AST activation bits, ALB residency, and GAT attribute agreement — and
// audits the Atom lifecycle contract of §3.2 (attributes immutable after
// CREATE, MAP/UNMAP balanced, ACTIVATE meaningful only for mapped atoms).
//
// Violations split into two severities, mirroring the paper's hint-based
// design (§2.1: no correctness property may depend on XMem):
//
//   - Structural violations mean the simulator's own tables disagree with
//     each other (AAM counts wrong, stale ALB entry, GAT out of sync).
//     These are bugs in the metadata plane itself and panic immediately.
//   - Lifecycle violations mean the *program* misused the API (activating
//     a never-mapped atom, unmapping nothing, creating after seal). The
//     hardware must tolerate these, so they are recorded as warnings and
//     counted, never faulted on — except operations on invalid atom IDs,
//     which panic under the checker so silent no-ops become observable.
//
// Enable with Lib.EnableInvariantChecks (tests) or the -check flag of
// cmd/xmem-sim.
type InvariantChecker struct {
	counts   InvariantCounts
	warnings []string
}

// InvariantCounts aggregates lifecycle-audit results.
type InvariantCounts struct {
	// Audits counts full structural validations performed.
	Audits uint64
	// ActivateUnmapped counts ACTIVATE/DEACTIVATE ops on atoms with no
	// mapped chunks (ACTIVATE only has meaning for mapped atoms, §3.2).
	ActivateUnmapped uint64
	// UnmapNoop counts UNMAP ops on atoms that had nothing mapped.
	UnmapNoop uint64
	// ZeroSizedMaps counts MAP/UNMAP ops whose dimensions cover no bytes.
	ZeroSizedMaps uint64
	// DimViolations counts 2D/3D ops with inconsistent dimensions
	// (sizeX > lenX, or rows overflowing the plane pitch).
	DimViolations uint64
	// SealedCreates counts CreateAtom calls that minted a new atom after
	// Segment() sealed the lib: the emitted atom segment misses them.
	SealedCreates uint64
	// AttrConflicts counts CreateAtom calls that reused a site with
	// different attributes (runtime twin of the attrconflict analyzer).
	AttrConflicts uint64
}

// NewInvariantChecker returns an empty checker. Usually reached through
// Lib.EnableInvariantChecks.
func NewInvariantChecker() *InvariantChecker { return &InvariantChecker{} }

// Counts returns the cumulative lifecycle-audit counters.
func (c *InvariantChecker) Counts() InvariantCounts { return c.counts }

// Warnings returns the recorded lifecycle violations, one message each, in
// the order they occurred. The list is capped to keep long runs bounded.
func (c *InvariantChecker) Warnings() []string {
	out := make([]string, len(c.warnings))
	copy(out, c.warnings)
	return out
}

// maxWarnings bounds the retained warning list; counters keep counting.
const maxWarnings = 64

func (c *InvariantChecker) warnf(format string, args ...interface{}) {
	if len(c.warnings) < maxWarnings {
		c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
	}
}

// --- lifecycle audits (per-op, warn-only) ---

// auditMap runs after a MAP/UNMAP executed. preMapped is the atom's mapped
// byte count before the operation (an unmap that removes the last mapping
// legitimately leaves zero bytes behind; an unmap that started from zero is
// the misuse).
func (c *InvariantChecker) auditMap(l *Lib, op string, id AtomID, sizeX, sizeY, sizeZ, lenX, lenXY uint64, unmap bool, preMapped uint64) {
	if sizeX == 0 || sizeY == 0 || sizeZ == 0 {
		c.counts.ZeroSizedMaps++
		c.warnf("%s(%s): zero-sized mapping (%dx%dx%d)", op, l.atomName(id), sizeX, sizeY, sizeZ)
	}
	if sizeY > 1 && sizeX > lenX {
		c.counts.DimViolations++
		c.warnf("%s(%s): sizeX %d exceeds row pitch lenX %d; rows overlap", op, l.atomName(id), sizeX, lenX)
	}
	if sizeZ > 1 && sizeY*lenX > lenXY {
		c.counts.DimViolations++
		c.warnf("%s(%s): %d rows of pitch %d exceed plane pitch lenXY %d; planes overlap",
			op, l.atomName(id), sizeY, lenX, lenXY)
	}
	if unmap && l.amu != nil && preMapped == 0 {
		c.counts.UnmapNoop++
		c.warnf("%s(%s): unmap of an atom with nothing mapped", op, l.atomName(id))
	}
	c.structural(l, op)
}

// auditStatus runs after ACTIVATE/DEACTIVATE. Only activation of an atom
// with no mapped data is flagged: attributes become "valid for all data the
// atom is mapped to" (§3.2), which is nothing — while deactivating after a
// final unmap is normal cleanup.
func (c *InvariantChecker) auditStatus(l *Lib, op string, id AtomID, activate bool) {
	if activate && l.amu != nil && l.amu.AAM().MappedBytes(id) == 0 {
		c.counts.ActivateUnmapped++
		c.warnf("%s(%s): atom has no mapped data; ACTIVATE has no effect (§3.2)",
			op, l.atomName(id))
	}
	c.structural(l, op)
}

func (c *InvariantChecker) auditCreate(l *Lib, site string, conflict, sealedCreate bool) {
	if conflict {
		c.counts.AttrConflicts++
		c.warnf("CreateAtom(%q): attributes differ from the creation site's; attributes are immutable (§3.2), the original wins", site)
	}
	if sealedCreate {
		c.counts.SealedCreates++
		c.warnf("CreateAtom(%q): new atom created after Segment() sealed the lib; the emitted atom segment misses it", site)
	}
	c.structural(l, "CreateAtom")
}

// auditInvalid handles an operation on an atom ID no CreateAtom produced.
// Under the checker this panics: the op would otherwise be a silent no-op
// and the program is certainly not doing what its author intended.
func (c *InvariantChecker) auditInvalid(l *Lib, op string, id AtomID) {
	panic(fmt.Sprintf("xmem: %s on invalid atom ID %d (%d atoms created); no CreateAtom produced this ID", op, id, len(l.atoms)))
}

// --- structural audit (panics on violation) ---

// structural runs CheckAll and panics on failure: a structural violation is
// a bug in the metadata plane, not in the program under simulation.
func (c *InvariantChecker) structural(l *Lib, op string) {
	if err := c.CheckAll(l); err != nil {
		panic(fmt.Sprintf("xmem: metadata invariant violated after %s: %v", op, err))
	}
}

// CheckAll cross-validates every metadata structure reachable from l and
// returns the first inconsistency found, or nil. It is exported so tests
// can assert consistency without enabling per-op auditing.
func (c *InvariantChecker) CheckAll(l *Lib) error {
	c.counts.Audits++
	if err := c.checkLib(l); err != nil {
		return err
	}
	if l.amu == nil {
		return nil
	}
	if err := c.checkAAM(l.amu.aam); err != nil {
		return err
	}
	if err := c.checkAST(l); err != nil {
		return err
	}
	if err := c.checkMapped(l); err != nil {
		return err
	}
	if err := c.checkALB(l.amu); err != nil {
		return err
	}
	return c.checkGAT(l)
}

// checkLib validates the lib's own site index: IDs consecutive from 0, one
// site per atom, the site index the exact inverse of the atom list.
func (c *InvariantChecker) checkLib(l *Lib) error {
	if len(l.bySite) != len(l.atoms) {
		return fmt.Errorf("lib: %d atoms but %d site entries", len(l.atoms), len(l.bySite))
	}
	for i, a := range l.atoms {
		if int(a.ID) != i {
			return fmt.Errorf("lib: atom at index %d has ID %d", i, a.ID)
		}
		if id, ok := l.bySite[a.Name]; !ok || id != a.ID {
			return fmt.Errorf("lib: site %q does not resolve back to atom %d", a.Name, a.ID)
		}
	}
	return nil
}

// checkAAM recomputes the per-atom mapped-chunk counts from the directory
// and compares them to the AAM's incremental bookkeeping, cross-checks each
// block's mapped counter against its chunks, and requires every block to be
// either named by exactly one directory entry or pooled and empty.
func (c *InvariantChecker) checkAAM(m *AAM) error {
	blocks := len(m.mapped)
	if uint64(len(m.atoms)) != uint64(blocks)*m.chunksPerPage {
		return fmt.Errorf("aam: slab holds %d chunks for %d blocks of %d", len(m.atoms), blocks, m.chunksPerPage)
	}
	owner := make([]int, blocks) // 1 = in the directory, 2 = pooled
	var recount PerAtom[uint64]
	auditEntry := func(pageIdx uint64, e uint32) error {
		if e == 0 {
			return nil
		}
		b := int(e - 1)
		if b >= blocks {
			return fmt.Errorf("aam: page %#x names block %d of %d", pageIdx, b, blocks)
		}
		if owner[b] != 0 {
			return fmt.Errorf("aam: page %#x shares block %d", pageIdx, b)
		}
		owner[b] = 1
		n := 0
		for _, id := range m.block(uint32(b)) {
			if id != InvalidAtom {
				*recount.At(id)++
				n++
			}
		}
		if uint32(n) != m.mapped[b] {
			return fmt.Errorf("aam: page %#x has %d mapped chunks but block counter says %d", pageIdx, n, m.mapped[b])
		}
		if n == 0 {
			return fmt.Errorf("aam: page %#x resident in the directory with no mapped chunks", pageIdx)
		}
		return nil
	}
	for pageIdx, e := range m.dir {
		if err := auditEntry(uint64(pageIdx), e); err != nil {
			return err
		}
	}
	for pageIdx, e := range m.overflow {
		if err := auditEntry(pageIdx, e); err != nil {
			return err
		}
	}
	for _, b := range m.freeBlocks {
		if int(b) >= blocks || owner[b] != 0 {
			return fmt.Errorf("aam: pooled block %d is out of range, in the directory or pooled twice", b)
		}
		owner[b] = 2
		if m.mapped[b] != 0 {
			return fmt.Errorf("aam: pooled block %d counts %d mapped chunks", b, m.mapped[b])
		}
		for _, id := range m.block(b) {
			if id != InvalidAtom {
				return fmt.Errorf("aam: pooled block %d still maps atom %d", b, id)
			}
		}
	}
	for b, o := range owner {
		if o == 0 {
			return fmt.Errorf("aam: block %d is neither in the directory nor pooled", b)
		}
	}
	for i := 0; i < max(recount.Len(), m.mappedChunks.Len()); i++ {
		if n, counted := recount.Get(AtomID(i)), m.mappedChunks.Get(AtomID(i)); n != counted {
			return fmt.Errorf("aam: atom %d has %d chunks mapped but count says %d", i, n, counted)
		}
	}
	return nil
}

// checkAST verifies every active atom was created (AST ⊆ created set).
func (c *InvariantChecker) checkAST(l *Lib) error {
	for _, id := range l.amu.ast.IDs() {
		if int(id) >= len(l.atoms) {
			return fmt.Errorf("ast: atom %d active but only %d atoms created", id, len(l.atoms))
		}
	}
	return nil
}

// checkMapped verifies every atom with mapped chunks was created.
func (c *InvariantChecker) checkMapped(l *Lib) error {
	for _, id := range l.amu.aam.MappedAtoms() {
		if int(id) >= len(l.atoms) {
			return fmt.Errorf("aam: atom %d mapped but only %d atoms created", id, len(l.atoms))
		}
	}
	return nil
}

// checkALB verifies every resident ALB entry still mirrors the AAM (map
// and unmap operations must have invalidated any page they touched) and
// that the intrusive LRU list is a consistent permutation of the resident
// set.
func (c *InvariantChecker) checkALB(u *AMU) error {
	b := u.alb
	for page, i := range b.byPage {
		if i < 0 || int(i) >= len(b.slots) {
			return fmt.Errorf("alb: page %#x indexes slot %d of %d", page, i, len(b.slots))
		}
		s := &b.slots[i]
		if s.page != page {
			return fmt.Errorf("alb: page %#x maps to slot %d tagged %#x", page, i, s.page)
		}
		truth := u.aam.PageAtoms(mem.Addr(page * mem.PageBytes))
		if len(s.atoms) != len(truth) {
			return fmt.Errorf("alb: page %#x caches %d chunks, aam has %d", page, len(s.atoms), len(truth))
		}
		for ci := range truth {
			if s.atoms[ci] != truth[ci] {
				return fmt.Errorf("alb: stale entry for page %#x chunk %d: cached atom %d, aam has %d",
					page, ci, s.atoms[ci], truth[ci])
			}
		}
	}
	// Walk the LRU chain: every resident slot exactly once, links mirrored.
	seen := 0
	prev := albNil
	for i := b.head; i != albNil; i = b.slots[i].next {
		if b.slots[i].prev != prev {
			return fmt.Errorf("alb: slot %d prev link %d, want %d", i, b.slots[i].prev, prev)
		}
		if j, ok := b.byPage[b.slots[i].page]; !ok || j != i {
			return fmt.Errorf("alb: slot %d (page %#x) on the LRU list but not indexed", i, b.slots[i].page)
		}
		seen++
		if seen > len(b.slots) {
			return fmt.Errorf("alb: LRU list longer than %d slots (cycle)", len(b.slots))
		}
		prev = i
	}
	if prev != b.tail {
		return fmt.Errorf("alb: LRU tail is %d, walk ended at %d", b.tail, prev)
	}
	if seen != len(b.byPage) || seen != b.used {
		return fmt.Errorf("alb: %d slots on the LRU list, %d indexed, %d counted", seen, len(b.byPage), b.used)
	}
	return nil
}

// checkGAT verifies the OS-loaded attribute table agrees with the lib's
// created atoms for every ID both know about (the segment encoding is
// lossless, so load-time decode must round-trip exactly).
func (c *InvariantChecker) checkGAT(l *Lib) error {
	g := l.amu.gat
	if g == nil {
		return nil
	}
	n := g.Len()
	if len(l.atoms) < n {
		n = len(l.atoms)
	}
	for i := 0; i < n; i++ {
		if got := g.Attributes(AtomID(i)); got != l.atoms[i].Attrs {
			return fmt.Errorf("gat: atom %d attributes %v disagree with lib %v", i, got, l.atoms[i].Attrs)
		}
	}
	return nil
}

// atomName labels an atom for warning messages.
func (l *Lib) atomName(id AtomID) string {
	if int(id) < len(l.atoms) {
		return fmt.Sprintf("%d %q", id, l.atoms[id].Name)
	}
	return fmt.Sprintf("%d", id)
}
