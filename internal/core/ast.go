package core

import "math/bits"

// MaxAtoms is the per-application atom budget. The paper assumes up to 256
// atoms per application, making the AST a 32-byte bitmap (§4.2); all
// evaluated benchmarks used fewer than 10.
const MaxAtoms = 256

// AtomSet is a set of atom IDs held as a bitmap, one bit per atom below
// MaxAtoms. The AST (Atom Status Table, §4.2 component 2) is an AtomSet of
// the active atoms: attributes of an atom are recognized by the system only
// while the atom is active (§3.2). The pin controller and the XMem
// prefetcher keep their pinned atoms in one too.
//
// IDs at or above MaxAtoms are ignored: XMem is hint-based, so a malformed
// hint must never fault. A set therefore never holds InvalidAtom.
type AtomSet [MaxAtoms / 64]uint64

// Add puts atom id in the set (ATOM_ACTIVATE on the AST).
func (s *AtomSet) Add(id AtomID) {
	if id < MaxAtoms {
		s[id/64] |= 1 << (id % 64)
	}
}

// Remove takes atom id out of the set (ATOM_DEACTIVATE on the AST).
func (s *AtomSet) Remove(id AtomID) {
	if id < MaxAtoms {
		s[id/64] &^= 1 << (id % 64)
	}
}

// Has reports whether atom id is in the set.
//
//xmem:allocfree
//xmem:statsneutral
func (s *AtomSet) Has(id AtomID) bool {
	return id < MaxAtoms && s[id/64]&(1<<(id%64)) != 0
}

// Len returns the number of atoms in the set.
func (s *AtomSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs returns the set's atoms in ascending order.
func (s *AtomSet) IDs() []AtomID {
	var ids []AtomID
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, AtomID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return ids
}
