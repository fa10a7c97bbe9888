package sim

import (
	"testing"

	"xmem/internal/workload"
)

// These three benchmarks measure what observation costs on the Figure 4
// XMem thrash point (gemm at N=96 with a 256 KiB tile over a 64 KiB L3 at
// 2.1 GB/s per core): off, metrics on, and spans at 1 in 1000. Compare
// them in interleaved rounds, for example
//
//	go test -run '^$' -bench 'Obs|Span' -benchtime 10x ./internal/sim/
//
// once per round. With -cpuprofile, BenchmarkObsDisabled profiles the
// simulator's access path with observation off.
func benchObservation(b *testing.B, metrics bool, spanEvery uint64) {
	w := workload.Gemm(workload.TiledConfig{N: 96, TileBytes: 256 << 10})
	cfg := FastConfig(64 << 10).WithUseCase1Bandwidth(2.1e9)
	cfg.XMemCache = true
	cfg.Metrics = metrics
	cfg.SpanSample = spanEvery
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := MustRun(cfg, w)
		if metrics && res.Metrics == nil {
			b.Fatal("no metrics report")
		}
		if spanEvery > 0 && (res.Spans == nil || len(res.Spans.Spans) == 0) {
			b.Fatal("no spans retained")
		}
	}
}

// BenchmarkObsDisabled is the default configuration: metrics and spans
// compiled in but off.
func BenchmarkObsDisabled(b *testing.B) { benchObservation(b, false, 0) }

// BenchmarkObsEnabled samples metrics every 100k cycles and attributes
// them per atom.
func BenchmarkObsEnabled(b *testing.B) { benchObservation(b, true, 0) }

// BenchmarkSpan1in1000 traces one in every thousand demand accesses.
func BenchmarkSpan1in1000(b *testing.B) { benchObservation(b, false, 1000) }
