package prefetch

import (
	"sort"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// rangeSet is an atom's linearized physical ranges with cumulative sizes,
// so positions within the concatenated ranges can be computed in O(log n).
type rangeSet struct {
	ranges []core.PARange
	cum    []uint64 // cum[i] = bytes before ranges[i]
	total  uint64
}

// set replaces the ranges, reusing the cumulative-size array.
func (rs *rangeSet) set(ranges []core.PARange) {
	rs.ranges, rs.cum, rs.total = ranges, rs.cum[:0], 0
	for _, r := range ranges {
		rs.cum = append(rs.cum, rs.total)
		rs.total += r.Size
	}
}

// position returns pa's byte offset within the concatenated ranges.
func (rs *rangeSet) position(pa mem.Addr) (uint64, bool) {
	i := sort.Search(len(rs.ranges), func(i int) bool { return rs.ranges[i].End() > pa })
	if i == len(rs.ranges) || pa < rs.ranges[i].Base {
		return 0, false
	}
	return rs.cum[i] + uint64(pa-rs.ranges[i].Base), true
}

// addrAt maps a concatenated-range offset back to a physical address.
func (rs *rangeSet) addrAt(pos uint64) (mem.Addr, bool) {
	if pos >= rs.total {
		return 0, false
	}
	i := sort.Search(len(rs.ranges), func(i int) bool {
		return rs.cum[i]+rs.ranges[i].Size > pos
	})
	return rs.ranges[i].Base + mem.Addr(pos-rs.cum[i]), true
}

// XMemPrefetcher is the atom-guided prefetcher of §5.2(4). Its private
// attribute table holds the translated access pattern (stride) of each
// atom, and the AMU's mapping broadcasts give it the exact (possibly
// multi-dimensional, linearized) address ranges. On every demand access to
// a pinned atom it tops the prefetch stream up to `degree` strides ahead of
// the access, following the atom's ranges across row boundaries — something
// a PC-stride prefetcher cannot do, and safe to do deeply because every
// prefetched line is known to belong to the expressed working set.
type XMemPrefetcher struct {
	pat    *core.PrefetchPAT
	degree int
	atoms  core.PerAtom[xmemAtom]
	pinned core.AtomSet
	queue  []Request
	stats  Stats
	// issueObs, when set, is told how many prefetches each OnAccess issued
	// for which atom (obs layer).
	issueObs func(id core.AtomID, n int)
}

// xmemAtom is one atom's mapped ranges and run-ahead state.
type xmemAtom struct {
	ranges rangeSet
	stream streamState
}

// streamState tracks one atom's demand position and prefetch cursor.
type streamState struct {
	started bool   // false until the first access after a mapping change
	cursor  uint64 // run-ahead position in the concatenated ranges
	lastPos uint64 // previous demand position
	conf    int    // consecutive forward-moving accesses
}

// streamConfThreshold: prefetching starts only once demand has moved
// forward this many consecutive times. Tile-sweep loops establish it
// instantly; stencil-style ping-ponging inside an atom never does, which
// keeps the run-ahead from flooding the memory system with guesses.
const streamConfThreshold = 2

// DefaultXMemDegree is the run-ahead depth in strides. It must cover the
// DRAM round-trip at the core's consumption rate; the expressed ranges
// bound the stream, so over-fetching beyond the working set is impossible.
const DefaultXMemDegree = 32

// NewXMem returns an XMem-guided prefetcher with the given run-ahead depth
// (0 selects DefaultXMemDegree).
func NewXMem(degree int) *XMemPrefetcher {
	if degree <= 0 {
		degree = DefaultXMemDegree
	}
	return &XMemPrefetcher{degree: degree}
}

// SetPAT installs the translated attribute table (program load / context
// switch).
func (p *XMemPrefetcher) SetPAT(pat *core.PrefetchPAT) { p.pat = pat }

// Stats returns the counters.
func (p *XMemPrefetcher) Stats() Stats { return p.stats }

// SetIssueObserver installs a per-atom issue observer.
func (p *XMemPrefetcher) SetIssueObserver(f func(id core.AtomID, n int)) { p.issueObs = f }

// AtomMapping implements core.MappingListener: it records the linearized
// ranges the AMU broadcasts.
func (p *XMemPrefetcher) AtomMapping(ev core.MapEvent) {
	a := p.atoms.At(ev.ID)
	a.stream = streamState{}
	ranges := a.ranges.ranges
	if ev.Unmap {
		ranges = removeRanges(ranges, ev.Ranges)
	} else {
		ranges = append(ranges, ev.Ranges...)
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].Base < ranges[j].Base })
	}
	a.ranges.set(ranges)
}

// AtomStatus implements core.MappingListener.
func (p *XMemPrefetcher) AtomStatus(id core.AtomID, active bool) {
	if !active {
		p.pinned.Remove(id)
	}
}

func removeRanges(rs, gone []core.PARange) []core.PARange {
	keep := rs[:0]
	for _, r := range rs {
		removed := false
		for _, g := range gone {
			if r.Base >= g.Base && r.End() <= g.End() {
				removed = true
				break
			}
		}
		if !removed {
			keep = append(keep, r)
		}
	}
	return keep
}

// SetPinned replaces the pinned-atom set (driven by the cache pinning
// controller's greedy algorithm, §5.2(2)).
func (p *XMemPrefetcher) SetPinned(ids []core.AtomID) {
	p.pinned = core.AtomSet{}
	for _, id := range ids {
		p.pinned.Add(id)
	}
}

// Pinned reports whether atom id is currently pinned.
func (p *XMemPrefetcher) Pinned(id core.AtomID) bool { return p.pinned.Has(id) }

// OnAccess reacts to a demand access (hit or miss) attributed to atom id:
// it tops the prefetch stream up to degree strides ahead of the access.
// Triggering on hits keeps the stream ahead of demand once prefetches start
// landing — a miss-only trigger stalls as soon as it succeeds.
func (p *XMemPrefetcher) OnAccess(pa mem.Addr, id core.AtomID, at uint64) {
	if !p.pinned.Has(id) || p.pat == nil {
		return
	}
	attr, ok := p.pat.Lookup(id)
	if !ok || !attr.Prefetchable || int(id) >= p.atoms.Len() {
		return
	}
	a := p.atoms.At(id)
	rs := &a.ranges
	pos, ok := rs.position(mem.LineAddr(pa))
	if !ok {
		return
	}
	st := &a.stream
	if !st.started {
		*st = streamState{started: true, lastPos: pos}
	}
	// Forward-progress confidence: only a demand stream that walks the
	// ranges monotonically in small steps earns run-ahead. Backward or
	// far jumps (stencil neighbours, a new reuse pass) reset it.
	step := uint64(attr.StrideLines) * mem.LineBytes
	if pos >= st.lastPos && pos-st.lastPos <= 4*step {
		if st.conf < streamConfThreshold {
			st.conf++
		}
	} else {
		st.conf = 0
		st.cursor = pos
	}
	st.lastPos = pos
	if st.conf < streamConfThreshold {
		return
	}
	p.stats.Trained++
	limit := pos + uint64(p.degree)*step
	cur := st.cursor
	if cur < pos || cur > limit {
		cur = pos
	}
	issued := 0
	for cur < limit {
		next := cur + step
		addr, ok := rs.addrAt(next)
		if !ok {
			cur = limit // stream exhausted; park the cursor
			break
		}
		p.queue = append(p.queue, Request{Addr: mem.LineAddr(addr), At: at})
		p.stats.Issued++
		issued++
		cur = next
	}
	st.cursor = cur
	if issued > 0 && p.issueObs != nil {
		p.issueObs(id, issued)
	}
}

// Drain returns and clears the queued prefetches. The queue keeps its
// backing array, so the returned slice is valid only until the next
// OnAccess.
func (p *XMemPrefetcher) Drain() []Request {
	q := p.queue
	p.queue = p.queue[:0]
	return q
}
