package sim

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"xmem/internal/workload"
)

// observationDigest is an FNV-64a digest of one core's observation output:
// the metrics report as Report.WriteJSON writes it, then the span dump as
// Dump.WriteJSONL writes it.
func observationDigest(t *testing.T, r Result) string {
	t.Helper()
	if r.Metrics == nil || r.Spans == nil {
		t.Fatalf("%s: metrics %v, spans %v; want both", r.Workload, r.Metrics != nil, r.Spans != nil)
	}
	h := fnv.New64a()
	if err := r.Metrics.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	io.WriteString(h, "\n--\n")
	if err := r.Spans.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestObservationGolden pins the metrics report and span dump byte for byte
// on three observed runs: the Figure 4 thrash point (pins, XMem prefetches,
// DRAM stages), a hybrid machine that spills to NVM (both dram and nvm
// demand-service histograms), and a two-core co-run (per-core reports, each
// attributing the DRAM commands in its own frames). A refactor of the
// observation path must leave every digest unchanged.
func TestObservationGolden(t *testing.T) {
	thrash := thrashConfig()
	thrash.Metrics = true
	thrash.EpochCycles = 50_000
	thrash.SpanSample = 50
	res := MustRun(thrash, gemmThrash())
	if got, want := observationDigest(t, res), "e10e064951267df6"; got != want {
		t.Errorf("thrash: digest %s, want %s", got, want)
	}

	hyb := testConfig()
	hyb.Hybrid = &HybridConfig{DRAMBytes: 64 << 10, NVMBytes: 16 << 20}
	hyb.Metrics = true
	hyb.SpanSample = 50
	res = MustRun(hyb, streamWorkload(8192, 2))
	layers := map[string]bool{}
	if res.Metrics.Latency != nil {
		for _, l := range res.Metrics.Latency.Layers {
			layers[l.Name] = true
		}
	}
	if !layers["dram.ctl.demand_service"] || !layers["nvm.ctl.demand_service"] {
		t.Errorf("hybrid: latency layers %v, want both dram and nvm demand service", layers)
	}
	if got, want := observationDigest(t, res), "14033a3463eb1d30"; got != want {
		t.Errorf("hybrid: digest %s, want %s", got, want)
	}

	multi := testConfig()
	multi.Metrics = true
	multi.SpanSample = 10
	mr := MustRunMulti(MultiConfig{Core: multi}, []workload.Workload{
		streamWorkload(1024, 2), streamWorkload(512, 2),
	})
	for i, want := range []string{"93001db1b4d774eb", "fa8c041b8acef6bb"} {
		if got := observationDigest(t, mr.Cores[i]); got != want {
			t.Errorf("multi core %d: digest %s, want %s", i, got, want)
		}
	}
}
