package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

func sampleTrace() *Trace {
	return &Trace{Events: []Event{
		{Kind: EvMalloc, Site: 1, Addr: 8192, Name: "buf"},
		{Kind: EvWork, Addr: 10},
		{Kind: EvLoad, Site: 3, Addr: 1 << 20},
		{Kind: EvStore, Site: 4, Addr: 1<<20 + 64},
		{Kind: EvLoad, Site: 3, Addr: 1<<20 + 128},
	}}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, got.Events) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr.Events, got.Events)
	}
}

func TestTraceReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	sampleTrace().Write(&buf)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestTraceReadBoundsHeaderCount: a header claiming 2^20 events with no
// record behind it, or more events than the format's limit, fails as
// malformed without sizing a slice for the claimed count (32 MiB of Events
// for 2^20).
func TestTraceReadBoundsHeaderCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count [8]byte // little-endian
	}{
		{"bodiless 2^20", [8]byte{0, 0, 0x10}},
		{"over-limit 2^30+1", [8]byte{1, 0, 0, 0x40}},
	} {
		hdr := append(traceMagic[:], tc.count[:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(hdr))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: Read = %v, want ErrBadTrace", tc.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: Read of the header allocated %d bytes, want under 1 MiB", tc.name, got)
		}
	}
}

// TestTraceWriteRejectsLongName: a Malloc name's length is a uint16, so
// Write refuses a longer name instead of writing a stream Read misparses.
func TestTraceWriteRejectsLongName(t *testing.T) {
	ok := &Trace{Events: []Event{{Kind: EvMalloc, Name: strings.Repeat("n", maxNameBytes)}}}
	var buf bytes.Buffer
	if err := ok.Write(&buf); err != nil {
		t.Fatalf("Write of a %d-byte name: %v", maxNameBytes, err)
	}
	if got, err := Read(&buf); err != nil || !reflect.DeepEqual(got.Events, ok.Events) {
		t.Fatalf("a %d-byte name does not round-trip: %v", maxNameBytes, err)
	}
	long := &Trace{Events: []Event{{Kind: EvMalloc, Name: strings.Repeat("n", maxNameBytes+1)}}}
	if err := long.Write(io.Discard); err == nil {
		t.Fatalf("Write accepted a %d-byte Malloc name", maxNameBytes+1)
	}
}

// FuzzTraceRead: Read never panics, and every trace it accepts survives
// Write then Read unchanged. The seed corpus is committed under
// testdata/fuzz/FuzzTraceRead.
func FuzzTraceRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a rewritten trace: %v", err)
		}
		if len(again.Events) != len(tr.Events) {
			t.Fatalf("round trip read %d events, want %d", len(again.Events), len(tr.Events))
		}
		for i := range tr.Events {
			if again.Events[i] != tr.Events[i] {
				t.Fatalf("event %d = %+v after the round trip, want %+v", i, again.Events[i], tr.Events[i])
			}
		}
	})
}

func TestTraceStats(t *testing.T) {
	tr := sampleTrace()
	if tr.Accesses() != 3 {
		t.Errorf("accesses = %d", tr.Accesses())
	}
	if tr.FootprintBytes() != 3*mem.LineBytes {
		t.Errorf("footprint = %d", tr.FootprintBytes())
	}
}

func TestRecorderCapturesWorkload(t *testing.T) {
	w := workload.Gemm(workload.TiledConfig{N: 24, TileBytes: 2048})
	tr := Record(w)
	if tr.Accesses() == 0 {
		t.Fatal("empty trace")
	}
	mallocs := 0
	for _, e := range tr.Events {
		if e.Kind == EvMalloc {
			mallocs++
		}
	}
	if mallocs != 3 {
		t.Errorf("gemm recorded %d mallocs, want 3 (A, B, C)", mallocs)
	}
}

func TestRecorderWorkCoalesces(t *testing.T) {
	r := NewRecorder()
	r.Work(5)
	r.Work(7)
	r.Load(1, r.Malloc("x", 4096, 0))
	if len(r.trace.Events) != 3 { // coalesced work + malloc + load
		t.Fatalf("events = %+v", r.trace.Events)
	}
	if r.trace.Events[0].Addr != 12 {
		t.Errorf("coalesced work = %d, want 12", r.trace.Events[0].Addr)
	}
}

func TestReplayMatchesOriginal(t *testing.T) {
	w := workload.Gemm(workload.TiledConfig{N: 24, TileBytes: 2048})
	tr := Record(w)
	// Replaying and re-recording must reproduce the same access stream
	// (modulo XMem lib events, which the trace does not carry).
	tr2 := Record(Replay("gemm-replay", tr))
	if tr.Accesses() != tr2.Accesses() {
		t.Fatalf("replay accesses %d != original %d", tr2.Accesses(), tr.Accesses())
	}
	// Spot-check the access sequence is byte-identical.
	var a1, a2 []Event
	for _, e := range tr.Events {
		if e.Kind == EvLoad || e.Kind == EvStore {
			a1 = append(a1, e)
		}
	}
	for _, e := range tr2.Events {
		if e.Kind == EvLoad || e.Kind == EvStore {
			a2 = append(a2, e)
		}
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func mkRegionTrace(events func(add func(kind EventKind, site int32, addr uint64))) *Trace {
	tr := &Trace{Events: []Event{{Kind: EvMalloc, Site: 2, Addr: 1 << 16, Name: "r"}}}
	events(func(kind EventKind, site int32, addr uint64) {
		tr.Events = append(tr.Events, Event{Kind: kind, Site: site, Addr: 1<<20 + addr})
	})
	return tr
}

func TestAnalyzeSequentialRegion(t *testing.T) {
	tr := mkRegionTrace(func(add func(EventKind, int32, uint64)) {
		for i := uint64(0); i < 1000; i++ {
			add(EvLoad, 1, i*64)
		}
	})
	p := Analyze(tr)
	if len(p.Regions) != 1 {
		t.Fatalf("regions = %d", len(p.Regions))
	}
	r := p.Regions[0]
	if r.DominantStride != 64 || r.Regularity < 0.99 {
		t.Errorf("stride = %d regularity = %.2f", r.DominantStride, r.Regularity)
	}
	attrs := r.InferAttributes(p.TotalAccesses())
	if attrs.Pattern != core.PatternRegular || attrs.StrideBytes != 64 {
		t.Errorf("inferred %v", attrs)
	}
	if attrs.RW != core.ReadOnly {
		t.Errorf("rw = %v, want READ_ONLY", attrs.RW)
	}
	if attrs.Reuse != 0 {
		t.Errorf("single-touch stream inferred reuse %d", attrs.Reuse)
	}
}

func TestAnalyzeReusedRegion(t *testing.T) {
	tr := mkRegionTrace(func(add func(EventKind, int32, uint64)) {
		for pass := 0; pass < 16; pass++ {
			for i := uint64(0); i < 64; i++ {
				add(EvLoad, 1, i*64)
			}
		}
	})
	r := Analyze(tr).Regions[0]
	if f := r.ReuseFactor(); f < 15 || f > 17 {
		t.Errorf("reuse factor = %.1f, want ~16", f)
	}
	attrs := r.InferAttributes(r.Accesses)
	if attrs.Reuse == 0 {
		t.Error("reused region inferred zero reuse")
	}
	if attrs.Intensity == 0 {
		t.Error("sole region inferred zero intensity")
	}
}

func TestAnalyzeRepeatableIrregular(t *testing.T) {
	// The same pseudo-random permutation replayed thrice: IRREGULAR.
	tr := mkRegionTrace(func(add func(EventKind, int32, uint64)) {
		for pass := 0; pass < 3; pass++ {
			for i := uint64(0); i < 512; i++ {
				add(EvLoad, 1, (i*2654435761)%1024*64)
			}
		}
	})
	r := Analyze(tr).Regions[0]
	attrs := r.InferAttributes(r.Accesses)
	if attrs.Pattern != core.PatternIrregular {
		t.Errorf("pattern = %v, want IRREGULAR (repeatable, no stride)", attrs.Pattern)
	}
}

func TestAnalyzeNonDetRegion(t *testing.T) {
	tr := mkRegionTrace(func(add func(EventKind, int32, uint64)) {
		state := uint64(99)
		for i := 0; i < 2000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			add(EvStore, 1, (state>>20)%1000*64)
		}
	})
	r := Analyze(tr).Regions[0]
	attrs := r.InferAttributes(r.Accesses)
	if attrs.Pattern != core.PatternNonDet {
		t.Errorf("pattern = %v, want NON_DET", attrs.Pattern)
	}
	if attrs.RW != core.WriteOnly {
		t.Errorf("rw = %v, want WRITE_ONLY", attrs.RW)
	}
}

func TestInferAtomsProduceValidSegment(t *testing.T) {
	w := workload.Synthetic(workload.Suite27()[0].Scaled(0.01))
	p := Analyze(Record(w))
	atoms := p.InferAtoms()
	if len(atoms) != len(p.Regions) {
		t.Fatalf("atoms = %d, regions = %d", len(atoms), len(p.Regions))
	}
	// The inferred atoms encode and decode like hand-written ones.
	decoded, err := core.DecodeSegment(core.EncodeSegment(atoms))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(atoms) {
		t.Fatal("segment round trip lost atoms")
	}
	// libq's hot stream must be inferred REGULAR with line stride.
	found := false
	for _, a := range atoms {
		if a.Name == "profiled.bits" {
			found = true
			if a.Attrs.Pattern != core.PatternRegular {
				t.Errorf("bits inferred %v", a.Attrs.Pattern)
			}
		}
	}
	if !found {
		t.Error("no profiled.bits atom")
	}
}

func TestSiteProfiles(t *testing.T) {
	tr := mkRegionTrace(func(add func(EventKind, int32, uint64)) {
		for i := uint64(0); i < 100; i++ {
			add(EvLoad, 7, i*128)
			add(EvStore, 8, i*64)
		}
	})
	p := Analyze(tr)
	if len(p.Sites) != 2 {
		t.Fatalf("sites = %d", len(p.Sites))
	}
	for _, s := range p.Sites {
		switch s.Site {
		case 7:
			if s.DominantStride != 128 || s.Stores != 0 {
				t.Errorf("site 7 = %+v", s)
			}
		case 8:
			if s.Stores != 100 {
				t.Errorf("site 8 = %+v", s)
			}
		}
	}
}

func TestProfileGuidedReplay(t *testing.T) {
	// Record an unannotated-equivalent workload, infer atoms from the
	// trace, and replay with them attached: the full profiling loop of
	// §3.5.1.
	orig := workload.Synthetic(workload.Suite27()[0].Scaled(0.01))
	tr := Record(orig)
	atoms := Analyze(tr).InferAtoms()
	w := ReplayWithAtoms("libq-profiled", tr, atoms)

	decl := core.NewLib(nil)
	w.Declare(decl)
	if len(decl.Atoms()) != len(atoms) {
		t.Fatalf("declared %d atoms, want %d", len(decl.Atoms()), len(atoms))
	}

	r := NewRecorder()
	r.lib = core.NewLibWithAtoms(nil, decl.Atoms())
	w.Run(r)
	st := r.lib.Stats()
	if st.RuntimeOps == 0 {
		t.Fatal("profiled replay made no XMem calls")
	}
	if st.Creates != 0 || st.AttrConflicts != 0 {
		t.Fatalf("replay diverged from declaration: %+v", st)
	}
	// Access stream identical to the plain replay.
	if got, want := r.trace.Accesses(), tr.Accesses(); got != want {
		t.Fatalf("accesses = %d, want %d", got, want)
	}
}
