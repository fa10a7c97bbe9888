// Package xmem_test hosts the top-level benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation, at a scale suitable
// for `go test -bench`. The full-scale regeneration lives in cmd/xmem-bench
// (see EXPERIMENTS.md for recorded outputs).
package xmem_test

import (
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/experiments"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// benchPreset is a reduced Mini preset so a single benchmark iteration
// stays under a second.
func benchPreset() experiments.Preset {
	p := experiments.Mini()
	p.UC1N = 96
	p.UC1Tiles = []uint64{8 << 10, 64 << 10, 256 << 10}
	p.UC1L3 = 64 << 10
	p.UC1Kernels = []string{"gemm"}
	p.UC2Scale = 0.04
	p.UC2Workloads = []string{"leslie3d"}
	return p
}

// BenchmarkTable2XMemLibOps measures the cost of the Table 2 library
// operations against a live AMU (CREATE, MAP/UNMAP, ACTIVATE/DEACTIVATE).
func BenchmarkTable2XMemLibOps(b *testing.B) {
	amu := xm.NewAMU(identity{}, xm.AMUConfig{})
	lib := xm.NewLib(amu)
	id := lib.CreateAtom("bench.atom", xm.Attributes{Reuse: 200})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib.AtomMap(id, 0x100000, 64<<10)
		lib.AtomActivate(id)
		lib.AtomDeactivate(id)
		lib.AtomUnmap(id, 0x100000, 64<<10)
	}
}

type identity struct{}

func (identity) Translate(va mem.Addr) (mem.Addr, bool) { return va, true }

// BenchmarkAMULookup measures the §4.2 ATOM_LOOKUP path through the ALB.
// ReportAllocs is part of the hot-path contract: steady state must be 0
// allocs/op (see make alloc-gate; whole-run allocations per access are
// measured by sh bench/run.sh).
func BenchmarkAMULookup(b *testing.B) {
	amu := xm.NewAMU(identity{}, xm.AMUConfig{})
	lib := xm.NewLib(amu)
	id := lib.CreateAtom("bench.atom", xm.Attributes{})
	lib.AtomMap(id, 0, 1<<20)
	lib.AtomActivate(id)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amu.Lookup(mem.Addr(i*64) % (1 << 20))
	}
}

// BenchmarkAtomSegment measures §3.5.2 segment encode+decode round trips.
func BenchmarkAtomSegment(b *testing.B) {
	lib := xm.NewLib(nil)
	for i := 0; i < 64; i++ {
		lib.CreateAtom(string(rune('a'+i%26))+string(rune('0'+i/26)), xm.Attributes{Reuse: uint8(i)})
	}
	atoms := lib.Atoms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := xm.EncodeSegment(atoms)
		if _, err := xm.DecodeSegment(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUC1 runs one tiled-kernel simulation per iteration.
func benchUC1(b *testing.B, tile uint64, xmem bool) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: tile})
	cfg := sim.FastConfig(p.UC1L3).WithUseCase1Bandwidth(p.UC1BandwidthPerCore)
	cfg.XMemCache = xmem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustRun(cfg, w)
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkFig4BaselineThrash and ...XMemThrash are the Figure 4 headline
// point: the over-sized tile on both systems.
func BenchmarkFig4BaselineThrash(b *testing.B) { benchUC1(b, 256<<10, false) }

// BenchmarkFig4XMemThrash is the XMem counterpart.
func BenchmarkFig4XMemThrash(b *testing.B) { benchUC1(b, 256<<10, true) }

// BenchmarkFig4BestTile is the tuned-tile point.
func BenchmarkFig4BestTile(b *testing.B) { benchUC1(b, 8<<10, false) }

// BenchmarkFig5Portability runs the portability sweep (tile tuned for the
// full cache, executed on the quarter cache) for both systems.
func BenchmarkFig5Portability(b *testing.B) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: p.UC1L3 / 2})
	for i := 0; i < b.N; i++ {
		for _, x := range []bool{false, true} {
			cfg := sim.FastConfig(p.UC1L3 / 4).WithUseCase1Bandwidth(p.UC1BandwidthPerCore)
			cfg.XMemCache = x
			sim.MustRun(cfg, w)
		}
	}
}

// BenchmarkFig6LowBandwidth runs the 0.5 GB/s design-point comparison
// (Baseline vs XMem-Pref vs XMem).
func BenchmarkFig6LowBandwidth(b *testing.B) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: 256 << 10})
	for i := 0; i < b.N; i++ {
		for _, mode := range []struct{ pin, pref bool }{{false, false}, {false, true}, {true, false}} {
			cfg := sim.FastConfig(p.UC1L3).WithUseCase1Bandwidth(0.5e9)
			cfg.XMemCache = mode.pin
			cfg.XMemPrefetchOnly = mode.pref
			sim.MustRun(cfg, w)
		}
	}
}

// benchUC2 runs one synthetic workload per iteration.
func benchUC2(b *testing.B, alloc sim.AllocPolicy, ideal bool) {
	p := benchPreset()
	var spec workload.SynthSpec
	for _, s := range workload.Suite27() {
		if s.Name == p.UC2Workloads[0] {
			spec = s.Scaled(p.UC2Scale)
		}
	}
	w := workload.Synthetic(spec)
	cfg := sim.FastConfig(p.UC2L3)
	cfg.Alloc = alloc
	cfg.AllocSeed = 42
	cfg.IdealRBL = ideal
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MustRun(cfg, w)
	}
}

// BenchmarkFig7Baseline is the strengthened-baseline DRAM placement run.
func BenchmarkFig7Baseline(b *testing.B) { benchUC2(b, sim.AllocRandom, false) }

// BenchmarkFig7XMemPlacement is the §6.2 placement run.
func BenchmarkFig7XMemPlacement(b *testing.B) { benchUC2(b, sim.AllocXMemPlacement, false) }

// BenchmarkFig7IdealRBL is the §6.4 upper bound.
func BenchmarkFig7IdealRBL(b *testing.B) { benchUC2(b, sim.AllocRandom, true) }

// BenchmarkFig8ReadLatency reports the Figure 8 metric (normalized read
// latency) as a custom benchmark unit while timing the paired runs.
func BenchmarkFig8ReadLatency(b *testing.B) {
	p := benchPreset()
	var spec workload.SynthSpec
	for _, s := range workload.Suite27() {
		if s.Name == p.UC2Workloads[0] {
			spec = s.Scaled(p.UC2Scale)
		}
	}
	w := workload.Synthetic(spec)
	var norm float64
	for i := 0; i < b.N; i++ {
		base := sim.FastConfig(p.UC2L3)
		base.Alloc = sim.AllocRandom
		base.AllocSeed = 42
		xcfg := base
		xcfg.Alloc = sim.AllocXMemPlacement
		rb := sim.MustRun(base, w)
		rx := sim.MustRun(xcfg, w)
		norm = rx.DRAM.AvgDemandReadLatency() / rb.DRAM.AvgDemandReadLatency()
	}
	b.ReportMetric(norm, "normReadLat")
}

// BenchmarkALBCoverage measures the §4.2 ALB claim while timing the run.
func BenchmarkALBCoverage(b *testing.B) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: 32 << 10})
	cfg := sim.FastConfig(p.UC1L3)
	cfg.XMemCache = true
	var hit float64
	for i := 0; i < b.N; i++ {
		hit = sim.MustRun(cfg, w).ALBHitRate
	}
	b.ReportMetric(100*hit, "ALBhit%")
}

// benchObs runs the Figure 4 thrash point with observability off or on, so
// the pair bounds the obs layer's overhead. With metrics off the hot path
// carries a single nil check; the recorded baseline (BENCH_obs.json) keeps
// the disabled case within noise of the pre-obs build.
func benchObs(b *testing.B, metrics bool) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: 256 << 10})
	cfg := sim.FastConfig(p.UC1L3).WithUseCase1Bandwidth(p.UC1BandwidthPerCore)
	cfg.XMemCache = true
	cfg.Metrics = metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustRun(cfg, w)
		if metrics && res.Metrics == nil {
			b.Fatal("no metrics report")
		}
	}
}

// BenchmarkObsDisabled is the default configuration: metrics compiled in
// but off.
func BenchmarkObsDisabled(b *testing.B) { benchObs(b, false) }

// BenchmarkObsEnabled samples every 100k cycles and attributes per-atom.
func BenchmarkObsEnabled(b *testing.B) { benchObs(b, true) }

// BenchmarkOverheadInstructions measures the §4.4 instruction overhead as a
// custom metric.
func BenchmarkOverheadInstructions(b *testing.B) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: 32 << 10})
	cfg := sim.FastConfig(p.UC1L3)
	cfg.XMemCache = true
	var frac float64
	for i := 0; i < b.N; i++ {
		r := sim.MustRun(cfg, w)
		frac = float64(r.Lib.Instructions) / float64(r.Instructions)
	}
	b.ReportMetric(100*frac, "instrOverhead%")
}

// benchSpan runs the Figure 4 thrash point with span tracing off or at a
// sampling rate, so the trio bounds the tracer's overhead (BENCH_span.json
// records a snapshot). Disabled, the hot path carries one nil check per
// access; sampled spans additionally walk the Peek-only harvest sweeps.
func benchSpan(b *testing.B, every uint64) {
	p := benchPreset()
	w := workload.Gemm(workload.TiledConfig{N: p.UC1N, TileBytes: 256 << 10})
	cfg := sim.FastConfig(p.UC1L3).WithUseCase1Bandwidth(p.UC1BandwidthPerCore)
	cfg.XMemCache = true
	cfg.SpanSample = every
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustRun(cfg, w)
		if every > 0 && (res.Spans == nil || len(res.Spans.Spans) == 0) {
			b.Fatal("no spans retained")
		}
	}
}

// BenchmarkSpanDisabled is the shipped default: the tracer compiled in but
// off (Config.SpanSample = 0).
func BenchmarkSpanDisabled(b *testing.B) { benchSpan(b, 0) }

// BenchmarkSpan1in1000 traces one in every thousand demand accesses.
func BenchmarkSpan1in1000(b *testing.B) { benchSpan(b, 1000) }

// BenchmarkSpan1in10 is an aggressive rate for interactive debugging runs.
func BenchmarkSpan1in10(b *testing.B) { benchSpan(b, 10) }
