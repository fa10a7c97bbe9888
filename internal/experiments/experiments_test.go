package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"mini", "fast", "paper"} {
		p, ok := PresetByName(name)
		if !ok || p.Name != name {
			t.Errorf("PresetByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if p, ok := PresetByName(""); !ok || p.Name != "fast" {
		t.Errorf("empty preset = %+v", p)
	}
	if _, ok := PresetByName("warp"); ok {
		t.Error("unknown preset accepted")
	}
}

// TestPresetFilter pins how xmem-bench reads -kernels and -workloads: a
// valid list replaces the preset's and runs in its own order, an empty
// value keeps the preset's, and an unknown, empty or repeated entry is an
// error that names it.
func TestPresetFilter(t *testing.T) {
	for _, tc := range []struct {
		kernels, workloads string
		wantK, wantW       []string
		err                string // non-empty: the filter is rejected
	}{
		{"", "", Mini().UC1Kernels, Mini().UC2Workloads, ""},
		{"heat-3d,gemm", "mcf,libq", []string{"heat-3d", "gemm"}, []string{"mcf", "libq"}, ""},
		{"2mm", "", []string{"2mm"}, Mini().UC2Workloads, ""},
		{"nosuch", "", nil, nil, `-kernels: unknown entry "nosuch"`},
		{"libq", "", nil, nil, `-kernels: unknown entry "libq"`},
		{"gemm,gemm", "", nil, nil, `-kernels: "gemm" is listed twice`},
		{"gemm,", "", nil, nil, `-kernels "gemm," has an empty entry`},
		{"", "nosuch", nil, nil, `-workloads: unknown entry "nosuch"`},
		{"", "gemm", nil, nil, `-workloads: unknown entry "gemm"`},
		{"", "libq,mcf,libq", nil, nil, `-workloads: "libq" is listed twice`},
		{"", "libq,", nil, nil, `-workloads "libq," has an empty entry`},
		{"", ",", nil, nil, `-workloads "," has an empty entry`},
	} {
		p := Mini()
		err := p.Filter(tc.kernels, tc.workloads)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("Filter(%q, %q) = %v; want an error containing %s", tc.kernels, tc.workloads, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Filter(%q, %q): %v", tc.kernels, tc.workloads, err)
			continue
		}
		if !reflect.DeepEqual(p.UC1Kernels, tc.wantK) || !reflect.DeepEqual(p.UC2Workloads, tc.wantW) {
			t.Errorf("Filter(%q, %q) kept kernels %v, workloads %v; want %v, %v",
				tc.kernels, tc.workloads, p.UC1Kernels, p.UC2Workloads, tc.wantK, tc.wantW)
		}
		var runK, runW []string
		for _, k := range uc1Kernels(p) {
			runK = append(runK, k.Name)
		}
		for _, s := range uc2Specs(p) {
			runW = append(runW, s.Name)
		}
		if !reflect.DeepEqual(runK, tc.wantK) || !reflect.DeepEqual(runW, tc.wantW) {
			t.Errorf("Filter(%q, %q) runs kernels %v, workloads %v; want %v, %v",
				tc.kernels, tc.workloads, runK, runW, tc.wantK, tc.wantW)
		}
	}
}

// TestSelect pins how xmem-bench reads -exp: the views it prints, in
// order, and the results it runs and writes to JSON, one sweep each.
func TestSelect(t *testing.T) {
	all := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "alb", "overhead", "hybrid"}
	allResults := []string{"fig4", "fig5", "fig6", "fig7", "alb", "overhead", "hybrid"}
	for _, tc := range []struct {
		list           string
		views, results []string // nil views: the list is rejected
	}{
		{"fig4,fig4", []string{"fig4"}, []string{"fig4"}},
		{"corun,numa,fig5", []string{"fig5", "numa", "corun"}, []string{"fig5", "numa", "corun"}},
		{"fig8", []string{"fig8"}, []string{"fig7"}},
		{"fig7,fig8", []string{"fig7", "fig8"}, []string{"fig7"}},
		{"fig5", []string{"fig5"}, []string{"fig5"}},
		{"all", all, allResults},
		{"numa,all", append(all, "numa"), append(allResults, "numa")},
		{"all,fig8,all", all, allResults},
		{"", nil, nil},
		{"alb,bogus", nil, nil},
		{"fig4,", nil, nil},
		{"Fig4", nil, nil},
	} {
		sel, err := Select(tc.list)
		if tc.views == nil {
			if err == nil || !strings.Contains(err.Error(), Usage()) {
				t.Errorf("Select(%q) = %v; want an error listing the valid names", tc.list, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", tc.list, err)
			continue
		}
		var views, results []string
		ran := map[string]bool{}
		for _, e := range sel {
			views = append(views, e.Name)
			if !ran[e.Result] {
				ran[e.Result] = true
				results = append(results, e.Result)
			}
		}
		if !reflect.DeepEqual(views, tc.views) || !reflect.DeepEqual(results, tc.results) {
			t.Errorf("Select(%q) shows %v from results %v; want %v from %v",
				tc.list, views, results, tc.views, tc.results)
		}
	}
}

func TestReportHelpers(t *testing.T) {
	if m := mean([]float64{1, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if m := maxOf([]float64{1, 3, 2}); m != 3 {
		t.Errorf("max = %f", m)
	}
	if sizeLabel(64) != "64B" || sizeLabel(8<<10) != "8KB" || sizeLabel(2<<20) != "2MB" {
		t.Errorf("size labels: %s %s %s", sizeLabel(64), sizeLabel(8<<10), sizeLabel(2<<20))
	}
}

func TestFig4MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "fig4").(Fig4Result)
	p := res.Preset
	if len(res.Rows) != len(p.UC1Kernels)*len(p.UC1Tiles) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s := res.Summarize()
	// Paper shape: the largest tile thrashes badly on the Baseline and
	// XMem substantially reduces that slowdown.
	if s.LargeTileSlowdownBaseAvg < 0.3 {
		t.Errorf("baseline large-tile slowdown = %.2f; expected severe thrashing", s.LargeTileSlowdownBaseAvg)
	}
	if s.LargeTileSlowdownXMemAvg >= s.LargeTileSlowdownBaseAvg {
		t.Errorf("XMem slowdown %.2f >= baseline %.2f; XMem must mitigate thrashing",
			s.LargeTileSlowdownXMemAvg, s.LargeTileSlowdownBaseAvg)
	}
	// Per-kernel: at the largest tile XMem must win.
	for _, k := range res.Kernels() {
		rows := res.kernelRows(k)
		last := rows[len(rows)-1]
		if last.Speedup() < 1.05 {
			t.Errorf("%s largest tile: XMem speedup %.3f < 1.05", k, last.Speedup())
		}
	}

	f5 := miniReport(t, "fig5").(Fig5Result)
	if len(f5.Rows) != len(p.UC1Kernels) {
		t.Fatalf("fig5 rows = %d", len(f5.Rows))
	}
	s5 := f5.Summarize()
	if s5.XMemIncreaseAvg >= s5.BaselineIncreaseAvg {
		t.Errorf("portability: XMem +%.1f%% >= baseline +%.1f%%; XMem must be more portable",
			100*s5.XMemIncreaseAvg, 100*s5.BaselineIncreaseAvg)
	}
}

func TestFig6MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "fig6").(Fig6Result)
	bws := []float64{2e9, 1e9, 0.5e9}
	if !reflect.DeepEqual(res.Bandwidths, bws) || len(res.Rows) != len(bws) {
		t.Fatalf("bandwidths %v, rows %+v; want one gemm row per bandwidth in %v", res.Bandwidths, res.Rows, bws)
	}
	for i, row := range res.Rows {
		if row.BandwidthPerSec != bws[i] {
			t.Errorf("row %d at %.1fGB/s, want %.1fGB/s", i, row.BandwidthPerSec/1e9, bws[i]/1e9)
		}
		if row.FullSpeedup() < 1.0 {
			t.Errorf("bw %.1fGB/s: XMem speedup %.3f < 1", row.BandwidthPerSec/1e9, row.FullSpeedup())
		}
		if row.FullSpeedup() < row.PrefSpeedup()*0.98 {
			t.Errorf("bw %.1fGB/s: full XMem (%.3f) worse than prefetch-only (%.3f)",
				row.BandwidthPerSec/1e9, row.FullSpeedup(), row.PrefSpeedup())
		}
	}
	// The gap grows as bandwidth shrinks (§5.4).
	if res.GapAt(0.5e9) <= res.GapAt(2e9) {
		t.Errorf("gap at 0.5GB/s (%.3f) <= gap at 2GB/s (%.3f); want widening under scarcity",
			res.GapAt(0.5e9), res.GapAt(2e9))
	}
	// Each result gets its own bandwidth slice.
	if d := fig6Bandwidths(); &d[0] == &fig6Bandwidths()[0] {
		t.Error("fig6Bandwidths shares one slice across calls")
	}
}

func TestFig7MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "fig7").(Fig7Result)
	if len(res.Rows) != len(res.Preset.UC2Workloads) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig7Row{}
	for _, row := range res.Rows {
		byName[row.Workload] = row
		// Ideal RBL is an upper bound for row-buffer optimization.
		if row.IdealSpeedup() < 1.0 {
			t.Errorf("%s: ideal speedup %.3f < 1", row.Workload, row.IdealSpeedup())
		}
	}
	// Stream-heavy workloads benefit; random-dominated ones barely move
	// (§6.4: mcf and friends are dominated by random accesses).
	if byName["leslie3d"].XMemSpeedup() < 1.03 {
		t.Errorf("leslie3d speedup = %.3f; stream isolation should help", byName["leslie3d"].XMemSpeedup())
	}
	if byName["mcf"].XMemSpeedup() > byName["leslie3d"].XMemSpeedup() {
		t.Errorf("mcf (%.3f) gained more than leslie3d (%.3f)",
			byName["mcf"].XMemSpeedup(), byName["leslie3d"].XMemSpeedup())
	}
	// Read latency falls with placement on the winners.
	if byName["leslie3d"].NormReadLat() >= 1.0 {
		t.Errorf("leslie3d normalized read latency = %.3f, want < 1", byName["leslie3d"].NormReadLat())
	}
}

func TestALBAndOverheadMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	alb := miniReport(t, "alb").(ALBResult)
	if len(alb.Points) == 0 {
		t.Fatal("no ALB points")
	}
	prev := -1.0
	for _, pt := range alb.Points {
		if pt.HitRate+0.02 < prev {
			t.Errorf("ALB hit rate fell from %.3f to %.3f at %d entries", prev, pt.HitRate, pt.Entries)
		}
		prev = pt.HitRate
		if pt.Entries == 256 && pt.HitRate < 0.9 {
			t.Errorf("256-entry ALB hit rate = %.3f, want > 0.9 (paper: 98.9%%)", pt.HitRate)
		}
	}

	ov := miniReport(t, "overhead").(OverheadResult)
	if ov.AAMFraction < 0.0019 || ov.AAMFraction > 0.0021 {
		t.Errorf("AAM fraction = %.4f, want ~0.002 (paper: 0.2%%)", ov.AAMFraction)
	}
	if ov.ASTBytes != 32 {
		t.Errorf("AST = %d B, want 32", ov.ASTBytes)
	}
	if ov.MaxInstructionOverhead() > 0.01 {
		t.Errorf("instruction overhead = %.4f%%, want well under 1%%", 100*ov.MaxInstructionOverhead())
	}
	if len(ov.CtxPoints) != 4 {
		t.Fatalf("ctx points = %d, want 4", len(ov.CtxPoints))
	}
	if ov.CtxPoints[0].Switches != 0 {
		t.Errorf("interval 0 forced %d switches", ov.CtxPoints[0].Switches)
	}
	// More frequent switches flush the ALB more: hit rate must not rise.
	last := ov.CtxPoints[1]
	for _, pt := range ov.CtxPoints[2:] {
		if pt.Switches <= last.Switches {
			t.Errorf("switch counts not increasing: %d then %d", last.Switches, pt.Switches)
		}
		if pt.ALBHitRate > last.ALBHitRate+0.01 {
			t.Errorf("ALB hit rate rose with more switches: %.4f -> %.4f", last.ALBHitRate, pt.ALBHitRate)
		}
		last = pt
	}
}

func TestTableWriter(t *testing.T) {
	tab := &table{}
	tab.add("name", "value")
	tab.addf("row-one\t%d", 42)
	tab.addf("r2\t%d", 7)
	var buf bytes.Buffer
	tab.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.HasPrefix(lines[1], "--") {
		t.Errorf("header/rule malformed:\n%s", out)
	}
	// Numeric columns right-align: both values end at the same column.
	if idx42, idx7 := strings.Index(lines[2], "42"), strings.Index(lines[3], "7"); idx42+2 != idx7+1 {
		t.Errorf("values not right-aligned:\n%s", out)
	}
	empty := &table{}
	empty.write(&buf) // must not panic
}

func TestTunedTile(t *testing.T) {
	tiles := []uint64{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	if got := tunedTile(tiles, 256<<10); got != 256<<10 {
		t.Errorf("tuned for 256KB = %d", got)
	}
	if got := tunedTile(tiles, 128<<10); got != 64<<10 {
		t.Errorf("tuned for 128KB = %d", got)
	}
	if got := tunedTile(tiles, 1<<10); got != 4<<10 {
		t.Errorf("tuned below smallest = %d, want the smallest tile", got)
	}
}
