package span

import (
	"testing"

	"xmem/internal/core"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 8)
	var picks []bool
	for i := 0; i < 9; i++ {
		picks = append(picks, tr.Take())
	}
	for i, got := range picks {
		want := (i+1)%3 == 0
		if got != want {
			t.Errorf("Take() #%d = %v, want %v", i+1, got, want)
		}
	}
	if tr.Seen() != 9 || tr.SampledCount() != 3 {
		t.Errorf("seen %d sampled %d, want 9 and 3", tr.Seen(), tr.SampledCount())
	}
}

func TestTracerDefaults(t *testing.T) {
	tr := NewTracer(0, 0)
	if tr.Every() != 1 {
		t.Errorf("Every() = %d, want 1 (sample everything)", tr.Every())
	}
	if tr.limit != DefaultBuffer || len(tr.buf) != 0 {
		t.Errorf("ring of %d spans holding %d, want %d holding none", tr.limit, len(tr.buf), DefaultBuffer)
	}
	if !tr.Take() {
		t.Error("every=1 tracer skipped an access")
	}
}

func TestTracerRingWrapAndDropped(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := uint64(1); i <= 10; i++ {
		tr.Take()
		s := tr.Begin("read", i*64, 0x100)
		s.Start, s.End = i, i+10
		s.AddStage("l1d", "hit", "", i, i+4)
		tr.Publish(s)
	}
	if tr.Published() != 10 {
		t.Fatalf("Published() = %d, want 10", tr.Published())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	// Oldest-first: seqs 7..10 survive.
	for i, s := range got {
		if want := uint64(7 + i); s.Seq != want {
			t.Errorf("span %d seq = %d, want %d", i, s.Seq, want)
		}
	}
}

// TestTracerRingGrowsOnDemand: the ring's storage grows with the spans
// published and stops at exactly its capacity, then wraps oldest-first.
func TestTracerRingGrowsOnDemand(t *testing.T) {
	const buffer = 100
	tr := NewTracer(1, buffer)
	for i := uint64(1); i <= 250; i++ {
		tr.Take()
		tr.Publish(tr.Begin("read", i*64, 0))
		if want := min(i, buffer); uint64(len(tr.buf)) != want || cap(tr.buf) > buffer {
			t.Fatalf("after %d spans the ring holds %d (capacity %d), want %d (at most %d)", i, len(tr.buf), cap(tr.buf), want, buffer)
		}
	}
	got := tr.Spans()
	if len(got) != buffer || tr.Dropped() != 150 {
		t.Fatalf("retained %d spans, dropped %d; want %d and 150", len(got), tr.Dropped(), buffer)
	}
	for i, s := range got {
		if want := uint64(151 + i); s.Seq != want {
			t.Fatalf("span %d seq = %d, want %d", i, s.Seq, want)
		}
	}
}

func TestTracerSpansBeforeWrap(t *testing.T) {
	tr := NewTracer(1, 8)
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("empty tracer returned %d spans", len(got))
	}
	tr.Take()
	s := tr.Begin("write", 64, 0)
	s.AddStage("l1d", "hit", "", 1, 5)
	tr.Publish(s)
	got := tr.Spans()
	if len(got) != 1 || got[0].Kind != "write" || got[0].Atom != core.InvalidAtom {
		t.Fatalf("Spans() = %+v", got)
	}
	if tr.Dropped() != 0 {
		t.Errorf("Dropped() = %d before the ring wrapped", tr.Dropped())
	}
}

func TestSpanPath(t *testing.T) {
	s := &Span{}
	s.AddStage("amu", "atom", ReasonALBHit, 0, 0)
	s.AddStage("l1d", "miss", "", 0, 4)
	s.AddStage("l3", "hit", ReasonPinnedByReuse, 12, 39)
	want := "amu:atom[alb-hit] → l1d:miss → l3:hit[pinned-by-Reuse]"
	if got := s.Path(); got != want {
		t.Errorf("Path() = %q, want %q", got, want)
	}
	if s.Stages[2].Reason != ReasonPinnedByReuse {
		t.Errorf("stage reason = %q", s.Stages[2].Reason)
	}
}

func TestSpanLatency(t *testing.T) {
	s := &Span{Start: 100, End: 139}
	if s.Latency() != 39 {
		t.Errorf("Latency() = %d, want 39", s.Latency())
	}
}
