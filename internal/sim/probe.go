package sim

import (
	"sort"

	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/obs"
	"xmem/internal/obs/span"
)

// l3Level is the L3's index in the probe's level order (L1D, L2, L3).
const l3Level = 2

// installProbe attaches the machine's sinks to the caches (one cache.Event
// stream per level) and the XMem prefetcher (issues per atom); RunMulti
// installs the memory's one observer, which hands each DRAM command to the
// DRAM sink (observeDRAM) of the core that owns its frame. buildMachine
// calls it once, when Metrics or SpanSample is set; otherwise every probe
// stays nil and costs one branch per event. Prefetcher training is not a
// probe: it changes timing, so it stays on the L3's cache.Observer
// (trainL3).
func (m *Machine) installProbe() {
	for lvl, c := range [...]*cache.Cache{m.l1d, m.l2, m.l3} {
		c.SetProbe(func(ev cache.Event) { m.observeCache(lvl, &ev) })
	}
	if m.xmemPf != nil {
		m.xmemPf.SetIssueObserver(m.observePrefetchIssue)
	}
}

// observeCache is the sink for cache level lvl. Resolved hits feed the
// level's hit-service histogram; at the L3, demand misses, first uses of
// prefetched lines (with their lead time) and pinned evictions are
// attributed to atoms; demand outcomes become span stages.
func (m *Machine) observeCache(lvl int, ev *cache.Event) {
	if m.lat != nil && ev.Resolved {
		m.lat.hit[lvl].Observe(ev.Done - ev.At)
	}
	if m.attrib != nil && lvl == l3Level {
		switch {
		case ev.Evicted:
			if ev.Pinned {
				m.attrib.PinEviction(m.resolveAtom(ev.PA))
			}
		case ev.Miss:
			m.attrib.DemandMiss(m.resolveAtom(ev.PA))
		case ev.Prefetched:
			m.attrib.PrefetchUseful(m.resolveAtom(ev.PA))
			if ev.Lead > 0 {
				m.lat.lead.Observe(ev.Lead)
			}
		}
	}
	if m.spans != nil && m.spans.cur != nil && !ev.Evicted {
		m.observeSpanCache(ev)
	}
}

// observePrefetchIssue is the XMem prefetcher's sink: per-atom attribution
// and, on the current span, a stage recording that the access triggered
// run-ahead along its atom's Regular stride.
func (m *Machine) observePrefetchIssue(id xm.AtomID, n int) {
	if m.attrib != nil {
		m.attrib.PrefetchIssued(id, n)
	}
	if ss := m.spans; ss != nil && ss.cur != nil {
		ss.cur.AddStage("prefetch", "issued", span.ReasonPrefetchIssued, ss.cur.Start, ss.cur.Start)
	}
}

// observeDRAM is the core's sink for the DRAM commands in its frames, and
// core 0's for those in frames no core allocated: per-atom row-buffer
// attribution, the per-tier and per-atom demand-service histograms, and
// the span tracer's DRAM stage.
func (m *Machine) observeDRAM(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
	tier := "dram"
	if m.tiers != nil && m.tiers.Region(pa) == tierNVM {
		tier = "nvm"
	}
	if m.attrib != nil {
		id := m.resolveAtom(pa)
		if rowHit {
			m.attrib.RowHit(id)
		} else {
			m.attrib.RowMiss(id)
		}
		if kind.IsDemand() {
			lat := done - arrival
			if tier == "nvm" {
				m.lat.nvm.Observe(lat)
			} else {
				m.lat.dram.Observe(lat)
			}
			m.lat.atomObserve(id, lat)
		}
	}
	if m.spans != nil && kind.IsDemand() {
		if sp := m.spans.inflight[mem.LineIndex(pa)]; sp != nil {
			outcome := "row-miss"
			if rowHit {
				outcome = "row-hit"
			}
			sp.AddStage(tier, outcome, "", arrival, done)
		}
	}
}

// latencyState holds the per-layer and per-atom latency histograms that
// ride along with metrics: service latency of demand accesses resolved at
// each cache level, DRAM/NVM demand-service latency, and the XMem
// prefetcher's lead time (how far ahead of demand prefetched fills land).
// All histograms use obs.Histogram's fixed log2 buckets; one observation
// is a handful of arithmetic ops.
type latencyState struct {
	hit       [3]obs.Histogram // indexed by probe level: L1D, L2, L3
	dram, nvm obs.Histogram
	lead      obs.Histogram
	// perAtom and unattributed hold DRAM demand-service latency by atom;
	// accesses that resolve to no atom go to unattributed.
	perAtom      xm.PerAtom[obs.Histogram]
	unattributed obs.Histogram
}

// atomObserve records one DRAM demand-service latency against an atom.
func (ls *latencyState) atomObserve(id xm.AtomID, v uint64) {
	if id == xm.InvalidAtom {
		ls.unattributed.Observe(v)
	} else {
		ls.perAtom.At(id).Observe(v)
	}
}

// report exports the non-empty histograms as the obs report's latency
// section (nil when nothing was observed). names resolves atom names.
func (ls *latencyState) report(names func(xm.AtomID) string) *obs.LatencyReport {
	var layers []obs.HistSummary
	add := func(name string, h *obs.Histogram) {
		if h.Count() > 0 {
			layers = append(layers, h.Summary(name))
		}
	}
	for lvl, name := range [...]string{"l1d", "l2", "l3"} {
		add("cache."+name+".hit_service", &ls.hit[lvl])
	}
	add("dram.ctl.demand_service", &ls.dram)
	add("nvm.ctl.demand_service", &ls.nvm)
	add("prefetch.xmem.lead", &ls.lead)
	if len(layers) == 0 {
		return nil
	}
	rep := &obs.LatencyReport{Layers: layers}
	addAtom := func(id xm.AtomID, h *obs.Histogram) {
		if h.Count() > 0 {
			rep.PerAtom = append(rep.PerAtom, obs.AtomLatency{ID: id, HistSummary: h.Summary(names(id))})
		}
	}
	for i := 0; i < ls.perAtom.Len(); i++ {
		addAtom(xm.AtomID(i), ls.perAtom.At(xm.AtomID(i)))
	}
	addAtom(xm.InvalidAtom, &ls.unattributed)
	sort.SliceStable(rep.PerAtom, func(i, j int) bool { return rep.PerAtom[i].Count > rep.PerAtom[j].Count })
	return rep
}
