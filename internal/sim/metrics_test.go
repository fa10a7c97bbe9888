package sim

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/obs"
	"xmem/internal/workload"
)

func metricsConfig() Config {
	cfg := testConfig()
	cfg.Metrics = true
	cfg.EpochCycles = 10_000
	return cfg
}

func TestMetricsDisabledByDefault(t *testing.T) {
	res := MustRun(testConfig(), streamWorkload(512, 2))
	if res.Metrics != nil {
		t.Errorf("metrics populated without Config.Metrics: %+v", res.Metrics)
	}
}

func TestMetricsReportShape(t *testing.T) {
	res := MustRun(metricsConfig(), streamWorkload(1024, 4))
	r := res.Metrics
	if r == nil {
		t.Fatal("no metrics report")
	}
	if r.Schema != obs.SchemaVersion {
		t.Errorf("schema = %q", r.Schema)
	}
	if r.EpochCycles != 10_000 {
		t.Errorf("epoch = %d", r.EpochCycles)
	}
	if len(r.Counters) == 0 || len(r.Samples) < 2 {
		t.Fatalf("counters = %d, samples = %d; want several of each", len(r.Counters), len(r.Samples))
	}
	// The registry's view must agree with the modeled hierarchy: the final
	// sample's cumulative counters equal the Result's own stats.
	final := r.Samples[len(r.Samples)-1]
	want := map[string]uint64{
		"cpu.core.loads":         res.CPU.Loads,
		"cache.l3.demand_misses": res.L3.Misses,
		"dram.ctl.reads":         res.DRAM.Reads,
	}
	for i, name := range r.Counters {
		if w, ok := want[name]; ok && uint64(final.Values[i]) != w {
			t.Errorf("%s final sample = %v, result says %d", name, final.Values[i], w)
		}
	}
	for i := 1; i < len(r.Samples); i++ {
		if r.Samples[i].Cycle <= r.Samples[i-1].Cycle {
			t.Fatalf("sample cycles not increasing at %d", i)
		}
	}
}

func TestMetricsALBHitRateZeroLookups(t *testing.T) {
	// Regression: a workload that never triggers an ATOM_LOOKUP (baseline
	// machine, no lookups from the hierarchy) must report rate 0, not NaN.
	res := MustRun(testConfig(), workload.Workload{
		Name: "noatoms",
		Run: func(p workload.Program) {
			buf := p.Malloc("buf", 64<<10, xm.InvalidAtom)
			for i := 0; i < 256; i++ {
				p.Load(0, buf+mem.Addr(i*mem.LineBytes))
			}
		},
	})
	if math.IsNaN(res.ALBHitRate) || res.ALBHitRate != 0 {
		t.Errorf("ALBHitRate with no lookups = %v, want 0", res.ALBHitRate)
	}
}

func TestMetricsAttributionCoverageGemm(t *testing.T) {
	// The ISSUE's acceptance bar: on a tiled-matrix run with the XMem
	// system, at least 90% of L3 demand misses attribute to a named atom.
	cfg := metricsConfig()
	cfg.XMemCache = true
	w, err := workload.ByName("gemm", workload.TiledConfig{N: 128, TileBytes: 64 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := MustRun(cfg, w).Metrics.PerAtom
	if len(rows) == 0 {
		t.Fatal("no per-atom rows")
	}
	cov := obs.AttributionCoverage(rows, func(c obs.AtomCounters) uint64 {
		return c.DemandMisses
	})
	if cov < 0.9 {
		t.Errorf("attribution coverage = %.2f, want >= 0.90 (rows: %+v)", cov, rows)
	}
	named := false
	for _, a := range rows {
		if a.Name != "" && a.Name != obs.UnattributedName {
			named = true
		}
	}
	if !named {
		t.Error("no per-atom row carries a segment name")
	}
}

// remapWorkload maps one atom over two disjoint buffers in turn, unmapping
// in between — attribution must accumulate across the remap.
func remapWorkload(lines int) workload.Workload {
	attrs := xm.Attributes{Pattern: xm.PatternRegular, StrideBytes: 64, Reuse: 200}
	return workload.Workload{
		Name:    "remap",
		Declare: func(lib *xm.Lib) { lib.CreateAtom("remap.buf", attrs) },
		Run: func(p workload.Program) {
			lib := p.Lib()
			id := lib.CreateAtom("remap.buf", attrs)
			size := uint64(lines) * mem.LineBytes
			a := p.Malloc("a", size, id)
			b := p.Malloc("b", size, id)
			for _, buf := range []mem.Addr{a, b} {
				lib.AtomMap(id, buf, size)
				lib.AtomActivate(id)
				for i := 0; i < lines; i++ {
					p.Load(1, buf+mem.Addr(i*mem.LineBytes))
					p.Work(2)
				}
				lib.AtomUnmap(id, buf, size)
			}
			lib.AtomDeactivate(id)
		},
	}
}

func TestMetricsPerAtomSurvivesRemap(t *testing.T) {
	// No prefetchers: every streamed line must surface as an L3 demand miss
	// so the attribution math below is exact.
	cfg := metricsConfig()
	cfg.StridePrefetch = false
	lines := 4 * (256 << 10) / mem.LineBytes // 4× L3: every line misses
	res := MustRun(cfg, remapWorkload(lines))
	rows := res.Metrics.PerAtom
	var row *obs.AtomSummary
	for i := range rows {
		if rows[i].Name == "remap.buf" {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no remap.buf row: %+v", rows)
	}
	// Both passes miss throughout (buffers exceed the L3), and both are
	// attributed to the same atom even though the second follows an unmap.
	if row.DemandMisses < uint64(3*lines/2) {
		t.Errorf("demand misses = %d across remap, want >= %d (both passes)",
			row.DemandMisses, 3*lines/2)
	}
}

func TestMetricsOnEpochHeartbeat(t *testing.T) {
	cfg := metricsConfig()
	cfg.EpochCycles = 1000 // short epochs: the run spans several
	var got []EpochProgress
	cfg.OnEpoch = func(p EpochProgress) { got = append(got, p) }
	MustRun(cfg, streamWorkload(1024, 4))
	if len(got) < 2 {
		t.Fatalf("OnEpoch fired %d times, want several", len(got))
	}
	for i, p := range got {
		if i > 0 && p.Epoch <= got[i-1].Epoch {
			t.Fatalf("epochs not increasing: %+v", got)
		}
		if p.Cycle == 0 || p.IPC <= 0 {
			t.Errorf("empty heartbeat: %+v", p)
		}
	}
}

func TestMetricsMultiCorePerCoreReports(t *testing.T) {
	cfg := MultiConfig{Core: metricsConfig()}
	res := MustRunMulti(cfg, []workload.Workload{
		streamWorkload(1024, 2), streamWorkload(512, 2),
	})
	for i, c := range res.Cores {
		if c.Metrics == nil {
			t.Fatalf("core %d: no metrics report", i)
		}
		if len(c.Metrics.Samples) == 0 {
			t.Errorf("core %d: no samples", i)
		}
		if len(c.Metrics.PerAtom) == 0 {
			t.Errorf("core %d: no per-atom rows", i)
		}
	}
}

func TestMetricsOutFormats(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		file  string
		check func(t *testing.T, data []byte)
	}{
		{"m.json", func(t *testing.T, data []byte) {
			r, err := obs.ValidateJSON(data)
			if err != nil {
				t.Fatal(err)
			}
			if r.Workload != "stream" {
				t.Errorf("workload = %q", r.Workload)
			}
		}},
		{"m.csv", func(t *testing.T, data []byte) {
			head := strings.SplitN(string(data), "\n", 2)[0]
			if !strings.HasPrefix(head, "epoch,cycle,") || !strings.Contains(head, "cache.l3.demand_misses") {
				t.Errorf("csv header = %q", head)
			}
		}},
		{"m.trace.json", func(t *testing.T, data []byte) {
			if !strings.Contains(string(data), `"traceEvents"`) {
				t.Error("not a chrome trace")
			}
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			res, err := Run(metricsConfig(), streamWorkload(1024, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Metrics.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, data)
		})
	}
}

// TestOnEpochWithoutMetrics: the -progress heartbeat must not require the
// metrics machinery — a registry-less sampler detects boundaries only.
func TestOnEpochWithoutMetrics(t *testing.T) {
	cfg := testConfig()
	cfg.EpochCycles = 1000
	var got []EpochProgress
	cfg.OnEpoch = func(p EpochProgress) { got = append(got, p) }
	res := MustRun(cfg, streamWorkload(1024, 4))
	if len(got) < 2 {
		t.Fatalf("OnEpoch fired %d times without Metrics, want several", len(got))
	}
	for _, p := range got {
		if p.Cycle == 0 || p.IPC <= 0 {
			t.Errorf("empty heartbeat: %+v", p)
		}
	}
	if res.Metrics != nil {
		t.Errorf("heartbeat-only run produced a metrics report: %+v", res.Metrics)
	}
}

// TestMetricsLatencySection: with Metrics on, the report carries per-layer
// service-latency histograms whose summaries pass the validator's checks.
// The gemm thrash point exercises both ends: tile reuse hits in L1 while
// evicted lines demand-miss all the way to DRAM. (A pure stream would not:
// the stride prefetcher covers it, so DRAM sees prefetch-kind fills and the
// demand histogram stays near-empty.)
func TestMetricsLatencySection(t *testing.T) {
	cfg := thrashConfig()
	cfg.Metrics = true
	cfg.EpochCycles = 10_000
	res := MustRun(cfg, gemmThrash())
	r := res.Metrics
	if r == nil || r.Latency == nil {
		t.Fatal("no latency section")
	}
	byName := map[string]obs.HistSummary{}
	for _, l := range r.Latency.Layers {
		byName[l.Name] = l
	}
	for _, name := range []string{"cache.l1d.hit_service", "dram.ctl.demand_service"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("layer %q missing (have %v)", name, r.Latency.Layers)
		}
		if s.Count == 0 || s.P50 > s.P99 || s.P99 > s.Max {
			t.Errorf("layer %q summary = %+v", name, s)
		}
	}
	// L1 hits resolve in the lookup latency; DRAM service is far slower.
	if byName["cache.l1d.hit_service"].P50 >= byName["dram.ctl.demand_service"].P50 {
		t.Errorf("L1 p50 %d not below DRAM p50 %d",
			byName["cache.l1d.hit_service"].P50, byName["dram.ctl.demand_service"].P50)
	}
	if len(r.Latency.PerAtom) == 0 {
		t.Error("no per-atom latency rows")
	}
}

// TestMetricsUnattributedNamedOnce: one report names the unattributed
// bucket the same way in the attribution table and in the latency
// section's per-atom rows.
func TestMetricsUnattributedNamedOnce(t *testing.T) {
	res := MustRun(metricsConfig(), workload.Workload{
		Name: "unattributed",
		Run: func(p workload.Program) {
			buf := p.Malloc("buf", 1024*mem.LineBytes, xm.InvalidAtom)
			for i := 0; i < 1024; i++ {
				p.Load(0, buf+mem.Addr(i*mem.LineBytes))
			}
		},
	})
	var attrib, lat []string
	for _, a := range res.Metrics.PerAtom {
		if a.ID == xm.InvalidAtom {
			attrib = append(attrib, a.Name)
		}
	}
	for _, a := range res.Metrics.Latency.PerAtom {
		if a.ID == xm.InvalidAtom {
			lat = append(lat, a.Name)
		}
	}
	want := []string{obs.UnattributedName}
	if !slices.Equal(attrib, want) || !slices.Equal(lat, want) {
		t.Errorf("unattributed bucket named %q in perAtom and %q in latency, want %q in both", attrib, lat, want)
	}
}

// TestCacheLevelNamedOnce: a cache level configured under another name (an
// L3 called "LLC") is spelled the same way by the registry's counters, the
// latency section's layers and the span stages.
func TestCacheLevelNamedOnce(t *testing.T) {
	cfg := thrashConfig()
	cfg.L3.Name = "LLC"
	cfg.Metrics = true
	cfg.EpochCycles = 10_000
	cfg.SpanSample = 10
	res := MustRun(cfg, gemmThrash())

	// levels collects the distinct cache levels named by "cache.<level>."
	// names, in first-seen order.
	levels := func(names []string) []string {
		var out []string
		for _, n := range names {
			if lvl, ok := strings.CutPrefix(n, "cache."); ok {
				lvl, _, _ = strings.Cut(lvl, ".")
				if !slices.Contains(out, lvl) {
					out = append(out, lvl)
				}
			}
		}
		return out
	}
	var layers, stages []string
	for _, l := range res.Metrics.Latency.Layers {
		layers = append(layers, l.Name)
	}
	for _, s := range res.Spans.Spans {
		for _, st := range s.Stages {
			switch st.Layer {
			case "amu", "prefetch", "dram", "nvm":
			default:
				stages = append(stages, "cache."+st.Layer+".")
			}
		}
	}
	want := []string{"l1d", "l2", "llc"}
	for _, got := range []struct {
		what  string
		names []string
	}{
		{"registry counters", res.Metrics.Counters},
		{"latency layers", layers},
		{"span stages", stages},
	} {
		if lv := levels(got.names); !slices.Equal(lv, want) {
			t.Errorf("%s name the cache levels %q, want %q", got.what, lv, want)
		}
	}
}
