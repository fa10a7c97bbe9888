package obs

import (
	"sort"

	"xmem/internal/core"
)

// AtomCounters are the hierarchy events attributable to one atom.
type AtomCounters struct {
	// DemandMisses counts L3 demand (read+write) misses on the atom's data.
	DemandMisses uint64 `json:"demandMisses"`
	// RowHits and RowMisses count DRAM commands for the atom's lines by
	// row-buffer outcome (misses = empty rows + conflicts).
	RowHits   uint64 `json:"rowHits"`
	RowMisses uint64 `json:"rowMisses"`
	// PinEvictions counts pinned L3 lines of the atom evicted under
	// pressure (§5.2: only possible when a set saturates with pins).
	PinEvictions uint64 `json:"pinEvictions"`
	// PrefetchIssued counts XMem-guided prefetches issued for the atom;
	// PrefetchUseful counts prefetched lines that later served a demand hit.
	PrefetchIssued uint64 `json:"prefetchIssued"`
	PrefetchUseful uint64 `json:"prefetchUseful"`
}

func (c AtomCounters) zero() bool {
	return c == AtomCounters{}
}

// UnattributedName labels events no atom could be resolved for.
const UnattributedName = "(unattributed)"

// AtomTable accumulates per-atom counters for one machine. Counters are
// indexed by AtomID and survive ATOM_UNMAP/remap: attribution is a property
// of the run, not of the current mapping. Events that resolve to no atom
// (core.InvalidAtom) accumulate in a bucket of their own. Like Registry, an
// AtomTable is not safe for concurrent use; the simulator is
// single-threaded per machine.
type AtomTable struct {
	counters     core.PerAtom[AtomCounters]
	unattributed AtomCounters
	names        core.PerAtom[string]
}

// NewAtomTable returns an empty attribution table.
func NewAtomTable() *AtomTable { return &AtomTable{} }

// SetName attaches a display name to an atom (from the atom segment).
func (t *AtomTable) SetName(id core.AtomID, name string) { *t.names.At(id) = name }

// Name returns the display name recorded for an atom ("" if unknown), and
// UnattributedName for core.InvalidAtom.
func (t *AtomTable) Name(id core.AtomID) string {
	if id == core.InvalidAtom {
		return UnattributedName
	}
	return t.names.Get(id)
}

func (t *AtomTable) get(id core.AtomID) *AtomCounters {
	if id == core.InvalidAtom {
		return &t.unattributed
	}
	return t.counters.At(id)
}

// DemandMiss attributes one L3 demand miss.
func (t *AtomTable) DemandMiss(id core.AtomID) { t.get(id).DemandMisses++ }

// RowHit attributes one DRAM row-buffer hit.
func (t *AtomTable) RowHit(id core.AtomID) { t.get(id).RowHits++ }

// RowMiss attributes one DRAM row-buffer miss (empty or conflict).
func (t *AtomTable) RowMiss(id core.AtomID) { t.get(id).RowMisses++ }

// PinEviction attributes one pinned-line eviction.
func (t *AtomTable) PinEviction(id core.AtomID) { t.get(id).PinEvictions++ }

// PrefetchIssued attributes n issued prefetches.
func (t *AtomTable) PrefetchIssued(id core.AtomID, n int) {
	t.get(id).PrefetchIssued += uint64(n)
}

// PrefetchUseful attributes one useful prefetch.
func (t *AtomTable) PrefetchUseful(id core.AtomID) { t.get(id).PrefetchUseful++ }

// Counters returns a copy of the counters for id (zero value if none).
func (t *AtomTable) Counters(id core.AtomID) AtomCounters {
	if id == core.InvalidAtom {
		return t.unattributed
	}
	return t.counters.Get(id)
}

// each calls f with every atom that has counted an event, in ID order,
// then with the unattributed bucket if it has.
func (t *AtomTable) each(f func(id core.AtomID, c AtomCounters)) {
	for i := 0; i < t.counters.Len(); i++ {
		if c := t.counters.Get(core.AtomID(i)); !c.zero() {
			f(core.AtomID(i), c)
		}
	}
	if !t.unattributed.zero() {
		f(core.InvalidAtom, t.unattributed)
	}
}

// Snapshot returns a copy of every atom's counters, sorted by ID — the
// sampler records one per epoch so exporters can draw per-atom tracks.
func (t *AtomTable) Snapshot() []AtomSample {
	out := []AtomSample{}
	t.each(func(id core.AtomID, c AtomCounters) {
		out = append(out, AtomSample{ID: id, Counters: c})
	})
	return out
}

// AtomSample is one atom's cumulative counters at a sample point.
type AtomSample struct {
	ID       core.AtomID  `json:"id"`
	Counters AtomCounters `json:"counters"`
}

// AtomSummary is the end-of-run attribution row for one atom.
type AtomSummary struct {
	ID   core.AtomID `json:"id"`
	Name string      `json:"name"`
	AtomCounters
}

// Summaries returns one row per atom with nonzero counters, sorted by
// demand misses (descending; ties by ID). The unattributed bucket, if any,
// sorts with the rest under the name "(unattributed)".
func (t *AtomTable) Summaries() []AtomSummary {
	out := []AtomSummary{}
	t.each(func(id core.AtomID, c AtomCounters) {
		out = append(out, AtomSummary{ID: id, Name: t.Name(id), AtomCounters: c})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].DemandMisses != out[j].DemandMisses {
			return out[i].DemandMisses > out[j].DemandMisses
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// AttributionCoverage returns the fraction of the given events that were
// attributed to a known atom. pick selects the counter being measured
// (e.g. demand misses).
func AttributionCoverage(rows []AtomSummary, pick func(AtomCounters) uint64) float64 {
	var total, known uint64
	for _, r := range rows {
		n := pick(r.AtomCounters)
		total += n
		if r.ID != core.InvalidAtom {
			known += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(known) / float64(total)
}
