package sim

import (
	"sort"

	"xmem/internal/cache"
	xm "xmem/internal/core"
)

// pinController runs the §5.2(2) greedy pinning algorithm: every time the
// set of active atoms (or their mappings) changes, it sorts the active,
// mapped atoms by expressed reuse and pins them greedily until the pinned
// working set reaches 75% of the L3 capacity. The selected set drives both
// the cache's insertion priorities and the XMem prefetcher's trigger set.
type pinController struct {
	m          *Machine
	pat        *xm.CachePAT
	pinEnabled bool // false in the XMem-Pref design point (§5.4)
	pinned     xm.AtomSet
	maxPinned  int
}

func newPinController(m *Machine, pat *xm.CachePAT, pinEnabled bool) *pinController {
	return &pinController{m: m, pat: pat, pinEnabled: pinEnabled}
}

// AtomMapping implements core.MappingListener.
func (pc *pinController) AtomMapping(ev xm.MapEvent) {
	if ev.Unmap && pc.pinned.Has(ev.ID) && pc.pinEnabled {
		// The atom is being peeled off its current data (e.g., moving to
		// the next tile): age the stale pinned lines so the default
		// policy can evict them (§5.2(3)).
		pc.m.l3.AgePinned(func(id xm.AtomID) bool { return id != ev.ID && pc.pinned.Has(id) })
	}
	pc.recompute()
}

// AtomStatus implements core.MappingListener.
func (pc *pinController) AtomStatus(xm.AtomID, bool) { pc.recompute() }

func (pc *pinController) recompute() {
	type cand struct {
		id    xm.AtomID
		reuse uint8
		size  uint64
	}
	aam := pc.m.amu.AAM()
	var cands []cand
	for _, id := range pc.m.amu.ActiveMappedAtoms() {
		attr, ok := pc.pat.Lookup(id)
		if !ok || !attr.PinCandidate {
			continue
		}
		cands = append(cands, cand{id: id, reuse: attr.Reuse, size: aam.MappedBytes(id)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].reuse != cands[j].reuse {
			return cands[i].reuse > cands[j].reuse
		}
		return cands[i].id < cands[j].id
	})

	// Pin greedily until the budget (75% of capacity) is consumed. The
	// straddling atom is included: when the working set exceeds the
	// available space, the cache pins part of it (bounded by the per-set
	// cap) and the prefetcher fetches the rest (§5.1).
	frac := pc.m.cfg.L3.PinCapFraction
	if frac == 0 {
		frac = cache.DefaultPinCapFraction
	}
	limit := uint64(float64(pc.m.l3.SizeBytes()) * frac)
	var next xm.AtomSet
	var total uint64
	for _, c := range cands {
		if total >= limit {
			break
		}
		next.Add(c.id)
		total += c.size
	}

	if pc.pinned != next {
		pc.pinned = next
		if pc.pinEnabled {
			pc.m.l3.AgePinned(func(id xm.AtomID) bool { return next.Has(id) })
		}
		pc.m.xmemPf.SetPinned(next.IDs())
		pc.maxPinned = max(pc.maxPinned, next.Len())
	}
}
