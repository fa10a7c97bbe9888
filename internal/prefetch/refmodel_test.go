package prefetch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// This file freezes the map-keyed XMem prefetcher (ranges, pinned set and
// stream state in map[core.AtomID] fields, a heap-allocated stream per
// atom) as a test-only reference model. FuzzXMemPrefetcherMatchesReference
// drives it and the shipped prefetcher through identical broadcasts, pin
// sets and accesses and requires identical prefetches, counters and pinned
// sets.

// refRangeSet is an atom's linearized physical ranges with cumulative sizes,
// so positions within the concatenated ranges can be computed in O(log n).
type refRangeSet struct {
	ranges []core.PARange
	cum    []uint64 // cum[i] = bytes before ranges[i]
	total  uint64
}

func newRefRangeSet(ranges []core.PARange) *refRangeSet {
	rs := &refRangeSet{ranges: ranges, cum: make([]uint64, len(ranges))}
	for i, r := range ranges {
		rs.cum[i] = rs.total
		rs.total += r.Size
	}
	return rs
}

// position returns pa's byte offset within the concatenated ranges.
func (rs *refRangeSet) position(pa mem.Addr) (uint64, bool) {
	i := sort.Search(len(rs.ranges), func(i int) bool { return rs.ranges[i].End() > pa })
	if i == len(rs.ranges) || pa < rs.ranges[i].Base {
		return 0, false
	}
	return rs.cum[i] + uint64(pa-rs.ranges[i].Base), true
}

// addrAt maps a concatenated-range offset back to a physical address.
func (rs *refRangeSet) addrAt(pos uint64) (mem.Addr, bool) {
	if pos >= rs.total {
		return 0, false
	}
	i := sort.Search(len(rs.ranges), func(i int) bool {
		return rs.cum[i]+rs.ranges[i].Size > pos
	})
	return rs.ranges[i].Base + mem.Addr(pos-rs.cum[i]), true
}

// refXMemPrefetcher is the map-based XMem prefetcher the atom-indexed one
// replaced.
type refXMemPrefetcher struct {
	pat    *core.PrefetchPAT
	degree int
	ranges map[core.AtomID]*refRangeSet
	pinned map[core.AtomID]bool
	// stream is the per-atom run-ahead state.
	stream map[core.AtomID]*refStreamState
	queue  []Request
	stats  Stats
	// issueObs, when set, is told how many prefetches each OnAccess issued
	// for which atom (obs layer).
	issueObs func(id core.AtomID, n int)
}

// refStreamState tracks one atom's demand position and prefetch cursor.
type refStreamState struct {
	cursor  uint64 // run-ahead position in the concatenated ranges
	lastPos uint64 // previous demand position
	conf    int    // consecutive forward-moving accesses
}

func newRefXMem(degree int) *refXMemPrefetcher {
	if degree <= 0 {
		degree = DefaultXMemDegree
	}
	return &refXMemPrefetcher{
		degree: degree,
		ranges: make(map[core.AtomID]*refRangeSet),
		pinned: make(map[core.AtomID]bool),
		stream: make(map[core.AtomID]*refStreamState),
	}
}

// SetPAT installs the translated attribute table (program load / context
// switch).
func (p *refXMemPrefetcher) SetPAT(pat *core.PrefetchPAT) { p.pat = pat }

// Stats returns the counters.
func (p *refXMemPrefetcher) Stats() Stats { return p.stats }

// SetIssueObserver installs a per-atom issue observer.
func (p *refXMemPrefetcher) SetIssueObserver(f func(id core.AtomID, n int)) { p.issueObs = f }

// AtomMapping implements core.MappingListener: it records the linearized
// ranges the AMU broadcasts.
func (p *refXMemPrefetcher) AtomMapping(ev core.MapEvent) {
	delete(p.stream, ev.ID)
	var ranges []core.PARange
	if old := p.ranges[ev.ID]; old != nil {
		ranges = old.ranges
	}
	if ev.Unmap {
		ranges = refRemoveRanges(ranges, ev.Ranges)
	} else {
		ranges = append(ranges, ev.Ranges...)
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].Base < ranges[j].Base })
	}
	if len(ranges) == 0 {
		delete(p.ranges, ev.ID)
		return
	}
	p.ranges[ev.ID] = newRefRangeSet(ranges)
}

// AtomStatus implements core.MappingListener.
func (p *refXMemPrefetcher) AtomStatus(id core.AtomID, active bool) {
	if !active {
		delete(p.pinned, id)
	}
}

func refRemoveRanges(rs, gone []core.PARange) []core.PARange {
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
func (p *refXMemPrefetcher) SetPinned(ids []core.AtomID) {
	p.pinned = make(map[core.AtomID]bool, len(ids))
	for _, id := range ids {
		p.pinned[id] = true
	}
}

// Pinned reports whether atom id is currently pinned.
func (p *refXMemPrefetcher) Pinned(id core.AtomID) bool { return p.pinned[id] }

// OnAccess reacts to a demand access (hit or miss) attributed to atom id:
// it tops the prefetch stream up to degree strides ahead of the access.
// Triggering on hits keeps the stream ahead of demand once prefetches start
// landing — a miss-only trigger stalls as soon as it succeeds.
func (p *refXMemPrefetcher) OnAccess(pa mem.Addr, id core.AtomID, at uint64) {
	if !p.pinned[id] || p.pat == nil {
		return
	}
	attr, ok := p.pat.Lookup(id)
	if !ok || !attr.Prefetchable {
		return
	}
	rs := p.ranges[id]
	if rs == nil {
		return
	}
	pos, ok := rs.position(mem.LineAddr(pa))
	if !ok {
		return
	}
	st := p.stream[id]
	if st == nil {
		st = &refStreamState{lastPos: pos}
		p.stream[id] = st
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
func (p *refXMemPrefetcher) Drain() []Request {
	q := p.queue
	p.queue = p.queue[:0]
	return q
}

// fuzzPinAtoms are the atoms the prefetcher differential drives: a
// workload's first atoms and the AST's last ID.
var fuzzPinAtoms = []core.AtomID{0, 1, 2, 3, 4, 5, 6, 7, core.MaxAtoms - 1}

// fuzzPrefetchPAT gives every atom below MaxAtoms a Regular pattern with a
// stride of 1, 2 or 4 lines, except that atoms whose ID is 3 mod 8 are
// Irregular.
func fuzzPrefetchPAT() *core.PrefetchPAT {
	atoms := make([]core.Atom, core.MaxAtoms)
	for i := range atoms {
		attrs := core.Attributes{Pattern: core.PatternRegular, StrideBytes: mem.LineBytes << (i % 3)}
		if i%8 == 3 {
			attrs = core.Attributes{Pattern: core.PatternIrregular}
		}
		atoms[i] = core.Atom{ID: core.AtomID(i), Attrs: attrs}
	}
	g := core.NewGAT()
	g.LoadAtoms(atoms)
	return core.TranslatePrefetch(g)
}

// xmemDiffCoverage counts what one differential run reached.
type xmemDiffCoverage struct {
	issued, remapsWhileStreaming, unpins uint64
}

// fuzzRanges decodes one or two ranges in the first 72 KiB: base in 256-B
// steps, 512 B to 8 KiB long, the second one past the first.
func fuzzRanges(b2, b3 byte) []core.PARange {
	r := core.PARange{Base: mem.Addr(b2) << 8, Size: (uint64(b3&15) + 1) * 512}
	if b3&16 == 0 {
		return []core.PARange{r}
	}
	return []core.PARange{r, {Base: r.End() + mem.Addr(b3>>5)*mem.PageBytes, Size: 512}}
}

// runXMemDiff drives the shipped prefetcher and the reference through the
// ops data encodes and compares every drained request, issue observation,
// Stats and Pinned after each op. The first byte picks the run-ahead
// degree; then each four bytes are one op: map or unmap broadcasts of
// overlapping ranges, activation changes, a new pinned set, an access that
// jumps into an atom's ranges, or one that steps forward from the last
// access of that atom.
func runXMemDiff(t *testing.T, data []byte) xmemDiffCoverage {
	var cov xmemDiffCoverage
	if len(data) == 0 {
		return cov
	}
	degree := 1 + int(data[0]%16)
	p, ref := NewXMem(degree), newRefXMem(degree)
	pat := fuzzPrefetchPAT()
	p.SetPAT(pat)
	ref.SetPAT(pat)
	type issue struct {
		id core.AtomID
		n  int
	}
	var got, want []issue
	p.SetIssueObserver(func(id core.AtomID, n int) { got = append(got, issue{id, n}) })
	ref.SetIssueObserver(func(id core.AtomID, n int) { want = append(want, issue{id, n}) })
	var pa mem.Addr
	var streamID core.AtomID
	for step, data := 0, data[1:]; len(data) >= 4; step, data = step+1, data[4:] {
		id := fuzzPinAtoms[int(data[1])%len(fuzzPinAtoms)]
		switch kind := data[0] % 8; kind {
		case 0, 1, 2:
			ev := core.MapEvent{ID: id, Ranges: fuzzRanges(data[2], data[3]), Unmap: kind == 2}
			if st, ok := ref.stream[id]; ok && st.conf > 0 {
				cov.remapsWhileStreaming++
			}
			p.AtomMapping(ev)
			ref.AtomMapping(ev)
		case 3:
			if ref.pinned[id] && data[2]&1 == 0 {
				cov.unpins++
			}
			p.AtomStatus(id, data[2]&1 == 1)
			ref.AtomStatus(id, data[2]&1 == 1)
		case 4:
			var ids []core.AtomID
			for i, a := range fuzzPinAtoms {
				if (uint16(data[2])|uint16(data[3])<<8)>>i&1 == 1 {
					ids = append(ids, a)
				}
			}
			p.SetPinned(ids)
			ref.SetPinned(ids)
		case 5:
			streamID, pa = id, mem.Addr(data[2])<<8|mem.Addr(data[3])
			if rs := ref.ranges[id]; rs != nil {
				pa, _ = rs.addrAt(uint64(pa) % rs.total)
			}
			fallthrough
		default:
			pa += mem.Addr(data[3]%8) * mem.LineBytes
			p.OnAccess(pa, streamID, uint64(step))
			ref.OnAccess(pa, streamID, uint64(step))
		}
		if g, w := p.Drain(), ref.Drain(); !slices.Equal(g, w) {
			t.Fatalf("step %d: drained %v != ref %v", step, g, w)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: issue observations %v != ref %v", step, got, want)
		}
		if p.Stats() != ref.Stats() {
			t.Fatalf("step %d: stats %+v != ref %+v", step, p.Stats(), ref.Stats())
		}
		for _, a := range fuzzPinAtoms {
			if p.Pinned(a) != ref.Pinned(a) {
				t.Fatalf("step %d: Pinned(%d) = %v != ref %v", step, a, p.Pinned(a), ref.Pinned(a))
			}
		}
	}
	cov.issued = p.Stats().Issued
	return cov
}

// xmemSeeds is the generated seed corpus of the prefetcher differential.
func xmemSeeds() [][]byte {
	rng := rand.New(rand.NewSource(19))
	seeds := make([][]byte, 64)
	for i := range seeds {
		seeds[i] = make([]byte, 1+4*(50+rng.Intn(250)))
		rng.Read(seeds[i])
	}
	return seeds
}

// FuzzXMemPrefetcherMatchesReference: the atom-indexed prefetcher behaves
// exactly like the map-keyed reference on any sequence of map and unmap
// broadcasts, status changes, pinned sets and accesses by atoms below
// MaxAtoms.
func FuzzXMemPrefetcherMatchesReference(f *testing.F) {
	for _, s := range xmemSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runXMemDiff(t, data) })
}

// TestXMemPrefetcherSeedsCoverStreams: the seeds issue prefetches, remap
// atoms whose stream has moved forward, and deactivate pinned atoms.
func TestXMemPrefetcherSeedsCoverStreams(t *testing.T) {
	var total xmemDiffCoverage
	for _, s := range xmemSeeds() {
		c := runXMemDiff(t, s)
		total.issued += c.issued
		total.remapsWhileStreaming += c.remapsWhileStreaming
		total.unpins += c.unpins
	}
	t.Logf("seeds: %+v", total)
	if total.issued == 0 || total.remapsWhileStreaming == 0 || total.unpins == 0 {
		t.Fatalf("seed corpus misses a path: %+v", total)
	}
}
