package core

import "xmem/internal/mem"

// The Attribute Translator (§3.4, §4.2 component 3) converts the high-level,
// architecture-agnostic attributes stored in the GAT into simple primitives
// each hardware component can act on directly. The translated primitives are
// stored privately per component in a Private Attribute Table (PAT), indexed
// by atom ID, at program load time and after context switches.

// CacheAttr is the cache controller's private view of an atom: just enough
// to run the pinning algorithm of §5.2.
type CacheAttr struct {
	// Reuse is the relative reuse ranking (0 = none).
	Reuse uint8
	// PinCandidate is true when the atom expresses a high-reuse working
	// set worth considering for pinning.
	PinCandidate bool
	// Bypass is true when the atom expresses no reuse at all, so its
	// lines should be inserted at the lowest priority.
	Bypass bool
}

// PrefetchAttr is the prefetcher's private view of an atom: only
// prefetchable access-pattern information survives translation (§2.2
// Challenge 2: "prefetchers ... need only know prefetchable access
// patterns").
type PrefetchAttr struct {
	// Prefetchable is true for REGULAR patterns.
	Prefetchable bool
	// StrideLines is the access stride in cache lines (minimum 1).
	StrideLines int64
}

// MemCtlAttr is the memory controller's and the OS placement policy's
// private view of an atom.
type MemCtlAttr struct {
	// HighRBL is true when the atom's pattern produces high row-buffer
	// locality (regular with a row-friendly stride).
	HighRBL bool
	// Irregular is true for irregular or non-deterministic patterns that
	// benefit from being spread across banks for parallelism.
	Irregular bool
	// Intensity is the relative access-frequency ranking.
	Intensity uint8
}

// PerAtom is per-atom state in a dense table indexed by atom ID, the
// layout of the GAT and of every PAT (§4.2). A read past the table's end
// returns T's zero value, as a missing map key would; a write grows the
// table to the atom's ID, so a table is as long as the highest ID it holds.
// InvalidAtom is never an index: state for events no atom claims lives in a
// field of its own.
type PerAtom[T any] struct {
	v []T
}

// Lookup returns atom id's entry and whether the table extends to id.
func (t *PerAtom[T]) Lookup(id AtomID) (T, bool) {
	if int(id) < len(t.v) {
		return t.v[id], true
	}
	var zero T
	return zero, false
}

// Get returns atom id's entry, or the zero value past the table's end.
func (t *PerAtom[T]) Get(id AtomID) T {
	v, _ := t.Lookup(id)
	return v
}

// At returns a pointer to atom id's entry, growing the table to hold it.
// The pointer is valid until the table next grows. At panics on
// InvalidAtom, which no caller may store state under.
func (t *PerAtom[T]) At(id AtomID) *T {
	if id == InvalidAtom {
		panic("core: InvalidAtom indexes no per-atom table")
	}
	if n := int(id) + 1; n > len(t.v) {
		t.v = append(t.v, make([]T, n-len(t.v))...)
	}
	return &t.v[id]
}

// Len returns one more than the highest atom ID the table holds.
func (t *PerAtom[T]) Len() int { return len(t.v) }

// CachePAT is the cache controller's private attribute table.
type CachePAT = PerAtom[CacheAttr]

// PrefetchPAT is the prefetcher's private attribute table.
type PrefetchPAT = PerAtom[PrefetchAttr]

// MemCtlPAT is the memory controller's private attribute table.
type MemCtlPAT = PerAtom[MemCtlAttr]

// rowFriendlyStrideBytes is the largest stride the translator still
// classifies as high row-buffer locality: within this stride, consecutive
// accesses stay in the same DRAM row long enough to amortize activation.
const rowFriendlyStrideBytes = 256

// TranslateCache builds the cache controller's PAT from the GAT.
func TranslateCache(g *GAT) *CachePAT {
	pat := &CachePAT{v: make([]CacheAttr, g.Len())}
	for i := range pat.v {
		a := g.Attributes(AtomID(i))
		pat.v[i] = CacheAttr{
			Reuse:        a.Reuse,
			PinCandidate: a.Reuse > 0,
			Bypass:       a.Reuse == 0 && a.Pattern == PatternRegular,
		}
	}
	return pat
}

// TranslatePrefetch builds the prefetcher's PAT from the GAT.
func TranslatePrefetch(g *GAT) *PrefetchPAT {
	pat := &PrefetchPAT{v: make([]PrefetchAttr, g.Len())}
	for i := range pat.v {
		a := g.Attributes(AtomID(i))
		if a.Pattern == PatternRegular {
			stride := a.StrideBytes / mem.LineBytes
			if stride == 0 {
				stride = 1
			}
			pat.v[i] = PrefetchAttr{Prefetchable: true, StrideLines: stride}
		}
	}
	return pat
}

// TranslateMemCtl builds the memory controller's / OS placement policy's
// PAT from the GAT.
func TranslateMemCtl(g *GAT) *MemCtlPAT {
	pat := &MemCtlPAT{v: make([]MemCtlAttr, g.Len())}
	for i := range pat.v {
		a := g.Attributes(AtomID(i))
		stride := a.StrideBytes
		if stride < 0 {
			stride = -stride
		}
		pat.v[i] = MemCtlAttr{
			HighRBL:   a.Pattern == PatternRegular && stride <= rowFriendlyStrideBytes,
			Irregular: a.Pattern == PatternIrregular || a.Pattern == PatternNonDet,
			Intensity: a.Intensity,
		}
	}
	return pat
}
