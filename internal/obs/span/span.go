// Package span implements sampled cross-layer causal tracing: one traced
// memory access is followed end-to-end — AMU lookup → ALB/GAT resolution →
// L1/L2/L3 outcome → DRAM/hybrid service — and every layer records its
// outcome together with a reason code naming the Atom attribute that drove
// the decision. Where the obs counters show *that* a rate moved, a span
// shows *why* one access was fast or slow: the pin that held the tile, the
// bypass that kept the stream out of the L3, the prefetch that ran ahead of
// it.
//
// Spans land in a fixed-size ring buffer that the simulator fills during
// the run and reads once after it. Sampling is 1-in-N with N configurable
// per run; with tracing disabled the simulator pays one nil check per
// access (the same discipline as the obs registry).
package span

import (
	"strings"

	"xmem/internal/core"
)

// Reason codes tie a layer's decision to the Atom attribute that drove it.
// They are stable strings (part of the xmem.span.v1 schema), formatted as
// decision-by-Attribute or decision-qualifier.
const (
	// ReasonALBHit: the AMU resolved the atom from the Atom Lookaside
	// Buffer without an AAM walk.
	ReasonALBHit = "alb-hit"
	// ReasonALBMissAAMWalk: the resolution needed a memory-resident AAM
	// walk (the ALB did not cover the page).
	ReasonALBMissAAMWalk = "alb-miss-aam-walk"
	// ReasonPinnedByReuse: the line was held (or inserted) pinned because
	// the pin controller ranked its atom's Reuse attribute highest.
	ReasonPinnedByReuse = "pinned-by-Reuse"
	// ReasonPinDeniedSetCap: the atom earned a pin but the set already
	// held the §5.2 75% pinned-way cap, so the fill was downgraded.
	ReasonPinDeniedSetCap = "pin-denied-set-cap"
	// ReasonBypassStreaming: the fill was inserted at low priority because
	// the atom expressed Reuse=0 with a Regular pattern — streaming data
	// that would only pollute the cache.
	ReasonBypassStreaming = "bypass-streaming-NoReuse-Regular"
	// ReasonPrefetchedStride: the hit consumed a line the XMem prefetcher
	// brought in by walking the atom's Regular stride ahead of demand.
	ReasonPrefetchedStride = "prefetched-Regular-stride"
	// ReasonHitUnderFill: the access hit a line whose fill was still in
	// flight and had to wait for it (a delayed hit).
	ReasonHitUnderFill = "hit-under-inflight-fill"
	// ReasonPrefetchIssued: this access triggered the XMem prefetcher to
	// run further ahead along the atom's Regular stride.
	ReasonPrefetchIssued = "prefetch-issued-Regular-stride"
	// ReasonPrefetchThrottled: prefetches triggered by this access were
	// dropped because the data bus was saturated (§5.1 bandwidth-aware
	// throttling).
	ReasonPrefetchThrottled = "prefetch-throttled-bandwidth"
)

// Stage is one layer's contribution to a traced access.
type Stage struct {
	// Layer names the component: "amu", "l1d", "l2", "l3", "prefetch",
	// "dram", "nvm".
	Layer string `json:"layer"`
	// Outcome is the layer's verdict ("hit", "miss", "delayed-hit",
	// "atom", "no-atom", "row-hit", "row-miss", "issued", "throttled").
	Outcome string `json:"outcome"`
	// Reason is the attribute-tied reason code, empty when no
	// attribute-driven decision applied.
	Reason string `json:"reason,omitempty"`
	// At is the cycle the request reached the layer; Done is the cycle the
	// layer's answer was available (for misses, the cycle the request left
	// for the next level — the full latency is the span's End-Start).
	At   uint64 `json:"at"`
	Done uint64 `json:"done"`
}

// Span is one traced access.
type Span struct {
	// Seq numbers sampled accesses in issue order (1-based).
	Seq uint64 `json:"seq"`
	// Atom is the resolved atom (core.InvalidAtom when unattributed);
	// AtomName its library name when known.
	Atom     core.AtomID `json:"atom"`
	AtomName string      `json:"atomName,omitempty"`
	// Kind is "read" or "write".
	Kind string `json:"kind"`
	// PA and PC are the physical line address and the access site.
	PA uint64 `json:"pa"`
	PC uint64 `json:"pc"`
	// Start is the issue cycle; End the cycle the data was available.
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Stages are the per-layer records in traversal order.
	Stages []Stage `json:"stages"`
}

// AddStage appends one layer record.
func (s *Span) AddStage(layer, outcome, reason string, at, done uint64) {
	s.Stages = append(s.Stages, Stage{Layer: layer, Outcome: outcome, Reason: reason, At: at, Done: done})
}

// Latency is the end-to-end service time in cycles.
func (s *Span) Latency() uint64 { return s.End - s.Start }

// Path renders the stage chain as a signature string, e.g.
// "amu:atom[alb-hit] → l1d:miss → l3:hit[pinned-by-Reuse]". Spans with the
// same path took the same causal route; explain aggregates on it.
func (s *Span) Path() string {
	var b strings.Builder
	for i, st := range s.Stages {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(st.Layer)
		b.WriteByte(':')
		b.WriteString(st.Outcome)
		if st.Reason != "" {
			b.WriteByte('[')
			b.WriteString(st.Reason)
			b.WriteByte(']')
		}
	}
	return b.String()
}

// DefaultBuffer is the retained-span ring capacity when none is configured.
const DefaultBuffer = 4096

// Tracer owns the sampling decision and the span ring. Like the machine
// that owns it, it is not safe for concurrent use: the simulator publishes
// spans during the run and reads them back after it.
type Tracer struct {
	every   uint64
	buf     []Span
	head    uint64 // spans ever published
	seen    uint64
	sampled uint64
	seq     uint64
}

// NewTracer samples one in every `every` accesses (every must be ≥ 1) into
// a ring of `buffer` spans (0 selects DefaultBuffer).
func NewTracer(every uint64, buffer int) *Tracer {
	if every == 0 {
		every = 1
	}
	if buffer <= 0 {
		buffer = DefaultBuffer
	}
	return &Tracer{every: every, buf: make([]Span, buffer)}
}

// Every returns the sampling period.
func (t *Tracer) Every() uint64 { return t.every }

// Take makes the sampling decision for the next access: one counter
// increment and one modulo on the traced path, nothing on untraced ones.
func (t *Tracer) Take() bool {
	t.seen++
	if t.seen%t.every != 0 {
		return false
	}
	t.sampled++
	return true
}

// Begin allocates the span for an access Take() selected.
func (t *Tracer) Begin(kind string, pa, pc uint64) *Span {
	t.seq++
	return &Span{Seq: t.seq, Atom: core.InvalidAtom, Kind: kind, PA: pa, PC: pc}
}

// Publish commits a finished span to the ring, overwriting the oldest entry
// when full.
func (t *Tracer) Publish(s *Span) {
	t.buf[t.head%uint64(len(t.buf))] = *s
	t.head++
}

// Seen returns the number of accesses offered to Take.
func (t *Tracer) Seen() uint64 { return t.seen }

// SampledCount returns the number of accesses Take selected.
func (t *Tracer) SampledCount() uint64 { return t.sampled }

// Published returns the number of spans ever published.
func (t *Tracer) Published() uint64 { return t.head }

// Dropped returns how many published spans the ring has already overwritten.
func (t *Tracer) Dropped() uint64 {
	if t.head > uint64(len(t.buf)) {
		return t.head - uint64(len(t.buf))
	}
	return 0
}

// Spans returns a copy of the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	n := min(t.head, uint64(len(t.buf)))
	out := make([]Span, 0, n)
	for i := t.head - n; i < t.head; i++ {
		out = append(out, t.buf[i%uint64(len(t.buf))])
	}
	return out
}
