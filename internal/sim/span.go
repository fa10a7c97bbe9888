package sim

import (
	"cmp"
	"slices"

	"xmem/internal/cache"
	"xmem/internal/mem"
	"xmem/internal/obs/span"
)

// spanState wires the causal span tracer into one machine. The central
// constraint is timing neutrality: a traced access's completion depends on
// memory-controller futures that resolve lazily under FR-FCFS, and forcing
// one early would change the schedule. So spans whose futures are pending
// park on a list and are swept with non-forcing Peek()s — on later sampled
// accesses and once more after the end-of-run drain — which makes a traced
// run cycle-identical to an untraced one.
type spanState struct {
	tr *span.Tracer
	// cur is the span of the sampled access currently in flight through
	// the hierarchy (nil outside one); curLine its line index, curRes its
	// L1 result. Only demand accesses to curLine can occur while cur is
	// set, so the probe matches cache events to it by line.
	cur     *span.Span
	curLine uint64
	curRes  mem.Result
	// pending holds issued spans whose completion futures are unresolved.
	pending []pendingSpan
	// inflight indexes unresolved spans by line so the DRAM sink can
	// attach the service stage when the command actually schedules.
	inflight map[uint64]*span.Span
}

type pendingSpan struct {
	s   *span.Span
	res mem.Result
}

// spanBegin opens the sampled span at the true issue cycle (inside the
// IssueMem closure, after any ROB/LSQ stall): the AMU resolution stage is
// recorded stats-neutrally (ALB.Covers + AMU.Peek touch no modeled
// counters) and the span registers for DRAM-stage matching. The span's atom
// comes from resolveAtom, as in per-atom attribution; the amu stage keeps
// the AMU's own outcome.
//
//xmem:statsneutral
func (m *Machine) spanBegin(kind mem.AccessKind, pa, pc mem.Addr, at uint64) {
	ss := m.spans
	ss.sweep()
	ks := "write"
	if kind == mem.Read {
		ks = "read"
	}
	sp := ss.tr.Begin(ks, uint64(mem.LineAddr(pa)), uint64(pc))
	sp.Start = at
	reason := span.ReasonALBMissAAMWalk
	if m.amu.ALB().Covers(pa) {
		reason = span.ReasonALBHit
	}
	outcome := "no-atom"
	if _, ok := m.amu.Peek(pa); ok {
		outcome = "atom"
	}
	sp.Atom = m.resolveAtom(pa)
	sp.AddStage("amu", outcome, reason, at, at)
	ss.cur = sp
	ss.curLine = mem.LineIndex(pa)
	ss.inflight[ss.curLine] = sp
}

// spanFinish closes the access window: cur detaches, and the span either
// publishes immediately (completion already known — cache hits) or parks on
// the pending list until its future resolves on its own.
//
//xmem:statsneutral
func (m *Machine) spanFinish() {
	ss := m.spans
	sp := ss.cur
	ss.cur = nil
	if done, ok := ss.curRes.Peek(); ok {
		ss.publish(sp, done)
		return
	}
	ss.pending = append(ss.pending, pendingSpan{s: sp, res: ss.curRes})
}

// publish closes a span at its resolved completion cycle and hands it to the
// ring. A hit under an in-flight fill inherits the fill's pending future
// unclamped (mem.Result.DeferredMax); lazy FR-FCFS draining can resolve that
// fill to a cycle before this access even issued, so End is floored at Start
// — the data was already on its way and arrives "immediately".
//
//xmem:statsneutral
func (ss *spanState) publish(sp *span.Span, done uint64) {
	if done < sp.Start {
		done = sp.Start
	}
	sp.End = done
	line := mem.LineIndex(mem.Addr(sp.PA))
	if ss.inflight[line] == sp {
		delete(ss.inflight, line)
	}
	ss.tr.Publish(sp)
}

// sweep publishes every pending span whose future has resolved since the
// last look. Peek never forces, so sweeping is invisible to the schedule.
//
//xmem:statsneutral
func (ss *spanState) sweep() {
	if len(ss.pending) == 0 {
		return
	}
	kept := ss.pending[:0]
	for _, p := range ss.pending {
		done, ok := p.res.Peek()
		if !ok {
			kept = append(kept, p)
			continue
		}
		ss.publish(p.s, done)
	}
	ss.pending = kept
}

// observeSpanCache turns the demand outcome of cache level lvl into a span
// stage with the attribute-tied reason code. Events for other lines (none
// can occur while cur is set, but the check keeps it airtight) are ignored.
//
//xmem:statsneutral
func (m *Machine) observeSpanCache(lvl int, ev *cache.Event) {
	ss := m.spans
	sp := ss.cur
	if sp == nil || mem.LineIndex(ev.PA) != ss.curLine {
		return
	}
	outcome := "hit"
	reason := ""
	switch {
	case ev.Miss:
		outcome = "miss"
		switch {
		case ev.Pinned:
			// The fill was inserted pinned: the pin controller ranked the
			// atom's Reuse attribute into the pinned set (§5.2).
			reason = span.ReasonPinnedByReuse
		case ev.PinDenied:
			reason = span.ReasonPinDeniedSetCap
		case ev.LowPriority:
			reason = span.ReasonBypassStreaming
		}
	case ev.Delayed:
		outcome = "delayed-hit"
		reason = span.ReasonHitUnderFill
		if ev.Prefetched {
			reason = span.ReasonPrefetchedStride
		}
	default:
		switch {
		case ev.Prefetched:
			reason = span.ReasonPrefetchedStride
		case ev.Pinned:
			reason = span.ReasonPinnedByReuse
		}
	}
	sp.AddStage(m.levels[lvl], outcome, reason, ev.At, ev.Done)
}

// spanNoteThrottle records on the current span that its prefetches were
// dropped by the §5.1 bandwidth-aware throttle.
//
//xmem:statsneutral
func (m *Machine) spanNoteThrottle(n int) {
	if n == 0 {
		return
	}
	if ss := m.spans; ss != nil && ss.cur != nil {
		ss.cur.AddStage("prefetch", "throttled", span.ReasonPrefetchThrottled, ss.cur.Start, ss.cur.Start)
	}
}

// spanDump assembles the end-of-run dump. Called from result() after the
// controller drain, when every future has resolved; a span still pending
// then never completed and is dropped rather than reported half-formed.
func (m *Machine) spanDump() *span.Dump {
	ss := m.spans
	ss.sweep()
	ss.pending = nil
	spans := ss.tr.Spans()
	slices.SortFunc(spans, func(a, b span.Span) int { return cmp.Compare(a.Seq, b.Seq) })
	for i := range spans {
		// Observers fire bottom-up on the miss path (L3 before L2 before
		// L1); a stable sort by start cycle renders stages top-down.
		slices.SortStableFunc(spans[i].Stages, func(a, b span.Stage) int { return cmp.Compare(a.At, b.At) })
	}
	atoms := m.lib.Atoms()
	for i := range spans {
		if id := int(spans[i].Atom); id < len(atoms) {
			spans[i].AtomName = atoms[id].Name
		}
	}
	return &span.Dump{
		Schema:      span.SchemaVersion,
		Workload:    m.w.Name,
		SampleEvery: ss.tr.Every(),
		Sampled:     ss.tr.SampledCount(),
		Published:   ss.tr.Published(),
		Dropped:     ss.tr.Dropped(),
		Spans:       spans,
	}
}
