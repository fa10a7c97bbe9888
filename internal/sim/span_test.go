package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmem/internal/obs/span"
	"xmem/internal/workload"
)

// thrashConfig is the Fig-4 thrash point scaled to test size: the gemm tile
// exceeds L3, so the pin controller, the XMem prefetcher and the bandwidth
// throttle all leave their marks on the sampled spans.
func thrashConfig() Config {
	cfg := FastConfig(64 << 10)
	cfg.Geometry.CapacityBytes = 16 << 20
	cfg.XMemCache = true
	return cfg
}

func gemmThrash() workload.Workload {
	w, err := workload.ByName("gemm", workload.TiledConfig{N: 96, TileBytes: 256 << 10}, 1)
	if err != nil {
		panic(err)
	}
	return w
}

func TestSpansDisabledByDefault(t *testing.T) {
	res := MustRun(testConfig(), streamWorkload(256, 2))
	if res.Spans != nil {
		t.Fatalf("spans populated without Config.SpanSample: %+v", res.Spans)
	}
}

// TestSpanTraceGemmThrash is the ISSUE's acceptance scenario: sampled spans
// on the thrash point must name an atom whose lines the pin controller kept
// resident (pinned-by-Reuse) and show the prefetcher acting on the declared
// Regular stride — so `explain` can say *why* accesses were slow, not just
// that they were.
func TestSpanTraceGemmThrash(t *testing.T) {
	cfg := thrashConfig()
	cfg.SpanSample = 50
	res := MustRun(cfg, gemmThrash())

	d := res.Spans
	if d == nil {
		t.Fatal("no span dump")
	}
	if d.SampleEvery != 50 || d.Sampled == 0 {
		t.Fatalf("dump header = %+v", d)
	}
	if got, want := uint64(len(d.Spans)), d.Published-d.Dropped; got != want {
		t.Fatalf("retained %d spans, header promises %d", got, want)
	}
	if len(d.Spans) == 0 {
		t.Fatal("no spans retained")
	}

	var pinned, prefetch, named bool
	for i, sp := range d.Spans {
		if i > 0 && sp.Seq <= d.Spans[i-1].Seq {
			t.Fatalf("spans not in Seq order: %d after %d", sp.Seq, d.Spans[i-1].Seq)
		}
		if sp.End < sp.Start || len(sp.Stages) == 0 {
			t.Fatalf("malformed span %+v", sp)
		}
		// Stages render top-down: the AMU lookup opens every span, and
		// later stages never start before earlier ones.
		if sp.Stages[0].Layer != "amu" {
			t.Fatalf("span %d starts at %q, want amu", sp.Seq, sp.Stages[0].Layer)
		}
		for j := 1; j < len(sp.Stages); j++ {
			if sp.Stages[j].At < sp.Stages[j-1].At {
				t.Fatalf("span %d stages out of order: %+v", sp.Seq, sp.Stages)
			}
		}
		if sp.AtomName == "gemm.tile" {
			named = true
		}
		for _, st := range sp.Stages {
			switch st.Reason {
			case span.ReasonPinnedByReuse:
				pinned = true
			case span.ReasonPrefetchIssued, span.ReasonPrefetchedStride,
				span.ReasonPrefetchThrottled, span.ReasonBypassStreaming:
				prefetch = true
			}
		}
	}
	if !named {
		t.Error("no span attributed to gemm.tile")
	}
	if !pinned {
		t.Errorf("no %s stage in %d spans", span.ReasonPinnedByReuse, len(d.Spans))
	}
	if !prefetch {
		t.Errorf("no prefetch/bypass reason in %d spans", len(d.Spans))
	}

	// The written stream round-trips through the validator and explain.
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := span.ValidateJSONL(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := span.WriteExplain(&buf, rd, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gemm.tile", span.ReasonPinnedByReuse} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestSpanAtomsFollowAttribution: a span names its access's atom the way
// per-atom attribution does, falling back to the atom Malloc tagged when no
// active mapping covers the address. gemm maps only its tile atom, so spans
// over A and C are named only through the fallback.
func TestSpanAtomsFollowAttribution(t *testing.T) {
	cfg := thrashConfig()
	cfg.SpanSample = 50
	named := map[string]int{}
	for _, sp := range MustRun(cfg, gemmThrash()).Spans.Spans {
		named[sp.AtomName]++
	}
	for _, name := range []string{"gemm.A", "gemm.C"} {
		if named[name] == 0 {
			t.Errorf("no span names %s; spans per atom: %v", name, named)
		}
	}
}

// TestSpanTimingNeutral: tracing observes the machine through Peek-only
// sweeps and must never force a future early — a traced run is
// cycle-identical to an untraced one.
func TestSpanTimingNeutral(t *testing.T) {
	base := MustRun(thrashConfig(), gemmThrash())

	cfg := thrashConfig()
	cfg.SpanSample = 3 // heavy sampling: worst case for interference
	cfg.SpanBuffer = 128
	traced := MustRun(cfg, gemmThrash())

	if base.Cycles != traced.Cycles {
		t.Fatalf("tracing changed timing: %d cycles untraced, %d traced",
			base.Cycles, traced.Cycles)
	}
	if base.Instructions != traced.Instructions || base.DRAM != traced.DRAM {
		t.Errorf("tracing changed execution: %+v vs %+v", base.DRAM, traced.DRAM)
	}
	// The tracer reads the AMU through Covers/Peek only; every modeled
	// lookup counter and the ALB hit stream must be bit-identical. This is
	// the dynamic twin of the statsneutral static contract on the span
	// hooks: a stats store smuggled into the Peek path fails here.
	if base.AMU != traced.AMU {
		t.Errorf("tracing perturbed AMU stats: %+v untraced, %+v traced", base.AMU, traced.AMU)
	}
	if base.ALBHitRate != traced.ALBHitRate {
		t.Errorf("tracing perturbed ALB hit rate: %v untraced, %v traced", base.ALBHitRate, traced.ALBHitRate)
	}
	if traced.Spans == nil || len(traced.Spans.Spans) == 0 {
		t.Fatal("traced run retained no spans")
	}
}

// TestSpanMultiCore: on a shared-controller machine each core traces its
// own spans, and the memory's observer hands each DRAM command to the core
// that owns its frame, so every core's spans on a co-run whose demand
// misses reach DRAM carry dram stages.
func TestSpanMultiCore(t *testing.T) {
	cfg := multiConfig()
	cfg.Core.SpanSample = 10
	res := MustRunMulti(cfg, corunWorkloads(3))
	for i, c := range res.Cores {
		if c.Spans == nil || len(c.Spans.Spans) == 0 {
			t.Fatalf("core %d: no spans", i)
		}
		if dramStages(c.Spans) == 0 {
			t.Errorf("core %d: no dram stage in %d spans", i, len(c.Spans.Spans))
		}
	}
}

// dramStages counts the dram stages of the spans in d.
func dramStages(d *span.Dump) int {
	n := 0
	for _, sp := range d.Spans {
		for _, st := range sp.Stages {
			if st.Layer == "dram" {
				n++
			}
		}
	}
	return n
}
