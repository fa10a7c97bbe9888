package core

import (
	"xmem/internal/mem"
)

// LibStats counts the application-side cost of using XMemLib (§4.4
// "Instruction overhead").
type LibStats struct {
	// Creates counts CreateAtom call sites resolved (compile-time work,
	// free at runtime).
	Creates uint64
	// RuntimeOps counts MAP/UNMAP/ACTIVATE/DEACTIVATE library calls.
	RuntimeOps uint64
	// Instructions is the number of extra dynamic instructions those ops
	// executed (register setup plus the XMem ISA instruction itself).
	Instructions uint64
	// AttrConflicts counts CreateAtom calls that reused an existing
	// creation site with different attributes; the original attributes
	// win because atom attributes are immutable (§3.2).
	AttrConflicts uint64
	// InvalidOps counts MAP/UNMAP/ACTIVATE/DEACTIVATE calls on atom IDs
	// no CreateAtom produced. They are no-ops (XMem is hint-based and
	// must never fault), but each one is certainly a program bug, so the
	// count makes the misuse observable — and the invariant checker turns
	// it into a panic.
	InvalidOps uint64
}

// Instruction cost per library call: the AMU-specific parameter registers
// plus one XMem ISA instruction (§4.1.3). Mapping calls carry up to five
// parameters; activate/deactivate carry one.
const (
	mapOpInstructions    = 6
	statusOpInstructions = 2
)

// Lib is XMemLib (§4.1.1): the application's interface to XMem. It exposes
// the three operator classes of Table 2 — CREATE, MAP/UNMAP, and
// ACTIVATE/DEACTIVATE — as function calls. CREATE is resolved statically
// (the compiler summarizes atoms into the atom segment); MAP and ACTIVATE
// translate to ISA instructions executed by the AMU at runtime.
//
// A Lib with a nil AMU supports software-only deployments such as the DRAM
// placement use case (§6), where the OS consumes the atom segment and the
// allocator interface without any XMem hardware.
//
// A Lib is not safe for concurrent use; each simulated machine owns one.
type Lib struct {
	amu    *AMU
	atoms  []Atom
	bySite map[string]AtomID
	stats  LibStats
	sealed bool
	// sealedAtoms is the atom count when Segment() sealed the lib; atoms
	// created after that are missing from the emitted segment.
	sealedAtoms int
	// checker, when non-nil, audits every operation (see InvariantChecker).
	checker *InvariantChecker
}

// NewLib returns a library bound to the given AMU (which may be nil for
// software-only use).
func NewLib(amu *AMU) *Lib {
	return &Lib{amu: amu, bySite: make(map[string]AtomID)}
}

// NewLibWithAtoms returns a library pre-populated with already-summarized
// atoms (the runtime view of a program whose CREATE sites were resolved at
// compile time): CreateAtom calls on the same sites return the existing IDs
// without counting as new creations.
func NewLibWithAtoms(amu *AMU, atoms []Atom) *Lib {
	l := NewLib(amu)
	for _, a := range atoms {
		if int(a.ID) != len(l.atoms) {
			panic("core: NewLibWithAtoms requires consecutive IDs from 0")
		}
		l.atoms = append(l.atoms, a)
		l.bySite[a.Name] = a.ID
	}
	return l
}

// CreateAtom creates an atom with the given immutable attributes and
// returns its ID (Table 2: CREATE). The site string identifies the creation
// site in the program; multiple invocations with the same site return the
// same atom ID without creating a new atom, matching the paper's
// compile-time summarization of CREATE calls. Attributes passed on repeat
// invocations are ignored (attributes are immutable; a mismatch is counted
// in LibStats.AttrConflicts). A site longer than 65,535 bytes, which the
// atom segment cannot name, creates no atom and returns InvalidAtom, as
// does a lib that has run out of atom IDs.
func (l *Lib) CreateAtom(site string, attrs Attributes) AtomID {
	if id, ok := l.bySite[site]; ok {
		conflict := l.atoms[id].Attrs != attrs
		if conflict {
			l.stats.AttrConflicts++
		}
		if l.checker != nil {
			l.checker.auditCreate(l, site, conflict, false)
		}
		return id
	}
	if len(l.atoms) >= MaxAtoms || len(site) > maxSiteBytes {
		// Out of atom IDs, or a site the segment cannot hold: return an
		// invalid hint handle. All operator calls on it are harmless no-ops.
		return InvalidAtom
	}
	id := AtomID(len(l.atoms))
	l.atoms = append(l.atoms, Atom{ID: id, Name: site, Attrs: attrs})
	l.bySite[site] = id
	l.stats.Creates++
	if l.checker != nil {
		l.checker.auditCreate(l, site, false, l.sealed)
	}
	return id
}

// Atoms returns the statically-created atoms in ID order — the content of
// the atom segment.
func (l *Lib) Atoms() []Atom {
	out := make([]Atom, len(l.atoms))
	copy(out, l.atoms)
	return out
}

// Segment serializes the created atoms into an atom segment (§3.5.2). It
// also seals the lib: the segment is what the OS loads into the GAT, so a
// CreateAtom after this point mints an atom the system will never know
// about. Creation stays permitted (XMem is hint-based), but the invariant
// checker records it as a SealedCreates violation.
func (l *Lib) Segment() []byte {
	if !l.sealed {
		l.sealed = true
		l.sealedAtoms = len(l.atoms)
	}
	return EncodeSegment(l.atoms)
}

// Sealed reports whether Segment() has been called.
func (l *Lib) Sealed() bool { return l.sealed }

// Stats returns the cumulative library-side cost counters.
func (l *Lib) Stats() LibStats { return l.stats }

// EnableInvariantChecks attaches a fresh InvariantChecker that audits every
// subsequent operation, and returns it. Structural inconsistencies between
// the AMU's tables panic; program-level misuse is recorded as warnings —
// except operations on invalid atom IDs, which panic (they are silent
// no-ops otherwise). Used by tests and the -check flag of cmd/xmem-sim.
func (l *Lib) EnableInvariantChecks() *InvariantChecker {
	l.checker = NewInvariantChecker()
	return l.checker
}

// Checker returns the attached invariant checker, or nil when auditing is
// disabled.
func (l *Lib) Checker() *InvariantChecker { return l.checker }

func (l *Lib) countOp(instructions uint64) {
	l.stats.RuntimeOps++
	l.stats.Instructions += instructions
}

// valid reports whether id names a created atom. The invalid path records
// the misuse (LibStats.InvalidOps) and panics under the invariant checker;
// callers then no-op, keeping the hint-based never-fault guarantee.
func (l *Lib) valid(id AtomID, op string) bool {
	if int(id) < len(l.atoms) {
		return true
	}
	l.stats.InvalidOps++
	if l.checker != nil {
		l.checker.auditInvalid(l, op, id)
	}
	return false
}

// mapOp is the one body of the six Table 2 MAP/UNMAP calls: a 1D range is
// one row of a 2D block, and a 2D block one plane of a 3D block. An unmap
// snapshots the atom's mapped bytes first, only under the checker, so the
// audit can tell a no-op unmap from one that removed the last mapping.
func (l *Lib) mapOp(op string, id AtomID, start mem.Addr, sizeX, sizeY, sizeZ, lenX, lenXY uint64, unmap bool) {
	if !l.valid(id, op) {
		return
	}
	l.countOp(mapOpInstructions)
	var pre uint64
	if unmap && l.checker != nil && l.amu != nil {
		pre = l.amu.AAM().MappedBytes(id)
	}
	if l.amu != nil {
		l.amu.execMap(id, start, sizeX, sizeY, sizeZ, lenX, lenXY, unmap)
	}
	if l.checker != nil {
		l.checker.auditMap(l, op, id, sizeX, sizeY, sizeZ, lenX, lenXY, unmap, pre)
	}
}

// AtomMap maps [start, start+size) to the atom (Table 2: MAP, 1D).
func (l *Lib) AtomMap(id AtomID, start mem.Addr, size uint64) {
	l.mapOp("AtomMap", id, start, size, 1, 1, size, size, false)
}

// AtomUnmap removes the atom's mapping over [start, start+size).
func (l *Lib) AtomUnmap(id AtomID, start mem.Addr, size uint64) {
	l.mapOp("AtomUnmap", id, start, size, 1, 1, size, size, true)
}

// AtomMap2D maps a 2D block of width sizeX bytes and sizeY rows, in a
// structure whose row length is lenX bytes (Table 2: MAP, 2D).
func (l *Lib) AtomMap2D(id AtomID, start mem.Addr, sizeX, sizeY, lenX uint64) {
	l.mapOp("AtomMap2D", id, start, sizeX, sizeY, 1, lenX, lenX*sizeY, false)
}

// AtomUnmap2D removes a 2D block mapping.
func (l *Lib) AtomUnmap2D(id AtomID, start mem.Addr, sizeX, sizeY, lenX uint64) {
	l.mapOp("AtomUnmap2D", id, start, sizeX, sizeY, 1, lenX, lenX*sizeY, true)
}

// AtomMap3D maps a 3D block: sizeZ planes of sizeY rows of sizeX bytes,
// with row pitch lenX and plane pitch lenXY (Table 2: MAP, 3D).
func (l *Lib) AtomMap3D(id AtomID, start mem.Addr, sizeX, sizeY, sizeZ, lenX, lenXY uint64) {
	l.mapOp("AtomMap3D", id, start, sizeX, sizeY, sizeZ, lenX, lenXY, false)
}

// AtomUnmap3D removes a 3D block mapping.
func (l *Lib) AtomUnmap3D(id AtomID, start mem.Addr, sizeX, sizeY, sizeZ, lenX, lenXY uint64) {
	l.mapOp("AtomUnmap3D", id, start, sizeX, sizeY, sizeZ, lenX, lenXY, true)
}

// AtomActivate validates the atom's attributes for all data it is mapped to
// (Table 2: ACTIVATE).
func (l *Lib) AtomActivate(id AtomID) {
	if !l.valid(id, "AtomActivate") {
		return
	}
	l.countOp(statusOpInstructions)
	if l.amu != nil {
		l.amu.ExecActivate(id)
	}
	if l.checker != nil {
		l.checker.auditStatus(l, "AtomActivate", id, true)
	}
}

// AtomDeactivate invalidates the atom's attributes (Table 2: DEACTIVATE).
func (l *Lib) AtomDeactivate(id AtomID) {
	if !l.valid(id, "AtomDeactivate") {
		return
	}
	l.countOp(statusOpInstructions)
	if l.amu != nil {
		l.amu.ExecDeactivate(id)
	}
	if l.checker != nil {
		l.checker.auditStatus(l, "AtomDeactivate", id, false)
	}
}
