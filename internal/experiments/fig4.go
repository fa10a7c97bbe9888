package experiments

import (
	"fmt"
	"io"

	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// Fig4Row is one (kernel, tile size) point of Figure 4: execution time of
// the statically tiled kernel on the Baseline system (DRRIP + multi-stride
// prefetcher) and on XMem (pinning + atom-guided prefetching).
type Fig4Row struct {
	Kernel         string
	TileBytes      uint64
	BaselineCycles uint64
	XMemCycles     uint64
}

// Speedup returns Baseline/XMem execution time.
func (r Fig4Row) Speedup() float64 {
	return float64(r.BaselineCycles) / float64(r.XMemCycles)
}

// Fig4Result is the full Figure 4 sweep.
type Fig4Result struct {
	Preset Preset
	Rows   []Fig4Row
}

// uc1Kernels resolves the preset's kernel list.
func uc1Kernels(p Preset) []workload.KernelFactory {
	all := workload.Kernels()
	if p.UC1Kernels == nil {
		return all
	}
	var out []workload.KernelFactory
	for _, name := range p.UC1Kernels {
		for _, k := range all {
			if k.Name == name {
				out = append(out, k)
			}
		}
	}
	return out
}

// uc1Config builds the use-case-1 machine for the given system flavour.
func uc1Config(p Preset, l3 uint64, xmemCache, xmemPrefOnly bool) sim.Config {
	cfg := sim.FastConfig(l3).WithUseCase1Bandwidth(p.UC1BandwidthPerCore)
	cfg.XMemCache = xmemCache
	cfg.XMemPrefetchOnly = xmemPrefOnly
	return cfg
}

// fig4Points builds the sweep: one independent point per (kernel, tile).
func fig4Points(p Preset) []runner.Point[Fig4Row] {
	var pts []runner.Point[Fig4Row]
	for _, k := range uc1Kernels(p) {
		for _, tile := range p.UC1Tiles {
			pts = append(pts, runner.Point[Fig4Row]{
				Key: fmt.Sprintf("%s/tile=%s", k.Name, sizeLabel(tile)),
				Run: func(*runner.Ctx) (Fig4Row, error) {
					w := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
					base, err := sim.Run(uc1Config(p, p.UC1L3, false, false), w)
					if err != nil {
						return Fig4Row{}, err
					}
					xmem, err := sim.Run(uc1Config(p, p.UC1L3, true, false), w)
					if err != nil {
						return Fig4Row{}, err
					}
					return Fig4Row{
						Kernel:         k.Name,
						TileBytes:      tile,
						BaselineCycles: base.Cycles,
						XMemCycles:     xmem.Cycles,
					}, nil
				},
				Line: func(r Fig4Row) string {
					return fmt.Sprintf("fig4 %-10s tile=%-8s base=%12d xmem=%12d speedup=%.3f\n",
						r.Kernel, sizeLabel(r.TileBytes), r.BaselineCycles, r.XMemCycles, r.Speedup())
				},
			})
		}
	}
	return pts
}

// runFig4Sweep reproduces Figure 4 on the sweep runner: execution time
// across tile sizes, Baseline vs XMem, total work held constant per kernel.
func runFig4Sweep(p Preset, opt runner.Options) (Fig4Result, error) {
	rows, err := runSweep("fig4", p, fig4Points(p), opt)
	return Fig4Result{Preset: p, Rows: rows}, err
}

// kernelRows returns the rows of one kernel in tile order.
func (r Fig4Result) kernelRows(kernel string) []Fig4Row {
	var out []Fig4Row
	for _, row := range r.Rows {
		if row.Kernel == kernel {
			out = append(out, row)
		}
	}
	return out
}

// Kernels lists the kernels present in the result.
func (r Fig4Result) Kernels() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Kernel] {
			seen[row.Kernel] = true
			out = append(out, row.Kernel)
		}
	}
	return out
}

// BestBaselineTile returns the tile size with the lowest baseline execution
// time for the kernel — the tile a static optimizer tuned for this cache
// would pick.
func (r Fig4Result) BestBaselineTile(kernel string) (uint64, uint64) {
	bestTile, bestCycles := uint64(0), ^uint64(0)
	for _, row := range r.kernelRows(kernel) {
		if row.BaselineCycles < bestCycles {
			bestTile, bestCycles = row.TileBytes, row.BaselineCycles
		}
	}
	return bestTile, bestCycles
}

// Summary condenses the sweep the way §5.4 reports it.
type Fig4Summary struct {
	// SmallTileSlowdownAvg/Max: smallest tile vs best tile, Baseline
	// (paper: 28.7% avg, up to 2×).
	SmallTileSlowdownAvg, SmallTileSlowdownMax float64
	// LargeTileSlowdownBaseAvg/Max: largest tile vs best tile, Baseline
	// (paper: 64.8% avg, up to 7.6×).
	LargeTileSlowdownBaseAvg, LargeTileSlowdownBaseMax float64
	// LargeTileSlowdownXMemAvg/Max: largest tile on XMem vs the
	// Baseline's best tile (paper: 26.9% avg, up to 4.6×).
	LargeTileSlowdownXMemAvg, LargeTileSlowdownXMemMax float64
}

// Summarize computes the §5.4 summary statistics.
func (r Fig4Result) Summarize() Fig4Summary {
	var small, largeBase, largeXMem []float64
	for _, k := range r.Kernels() {
		rows := r.kernelRows(k)
		if len(rows) == 0 {
			continue
		}
		_, best := r.BestBaselineTile(k)
		first, last := rows[0], rows[len(rows)-1]
		small = append(small, float64(first.BaselineCycles)/float64(best)-1)
		largeBase = append(largeBase, float64(last.BaselineCycles)/float64(best)-1)
		largeXMem = append(largeXMem, float64(last.XMemCycles)/float64(best)-1)
	}
	return Fig4Summary{
		SmallTileSlowdownAvg:     mean(small),
		SmallTileSlowdownMax:     maxOf(small),
		LargeTileSlowdownBaseAvg: mean(largeBase),
		LargeTileSlowdownBaseMax: maxOf(largeBase),
		LargeTileSlowdownXMemAvg: mean(largeXMem),
		LargeTileSlowdownXMemMax: maxOf(largeXMem),
	}
}

// Print renders the Figure 4 series and the §5.4 summary.
func (r Fig4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 4 — execution time vs tile size (preset %s, L3 %s)\n\n",
		r.Preset.Name, sizeLabel(r.Preset.UC1L3))
	t := &table{}
	t.add("kernel", "tile", "baseline cycles", "xmem cycles", "xmem speedup")
	for _, row := range r.Rows {
		t.addf("%s\t%s\t%d\t%d\t%.3f",
			row.Kernel, sizeLabel(row.TileBytes), row.BaselineCycles, row.XMemCycles, row.Speedup())
	}
	t.write(w)

	s := r.Summarize()
	fmt.Fprintf(w, "\nSummary (paper §5.4 analogues):\n")
	fmt.Fprintf(w, "  smallest tile vs best (Baseline): +%.1f%% avg, +%.1f%% max (paper: +28.7%%, up to 2x)\n",
		100*s.SmallTileSlowdownAvg, 100*s.SmallTileSlowdownMax)
	fmt.Fprintf(w, "  largest tile vs best (Baseline):  +%.1f%% avg, +%.1f%% max (paper: +64.8%%, up to 7.6x)\n",
		100*s.LargeTileSlowdownBaseAvg, 100*s.LargeTileSlowdownBaseMax)
	fmt.Fprintf(w, "  largest tile vs best (XMem):      +%.1f%% avg, +%.1f%% max (paper: +26.9%%, up to 4.6x)\n",
		100*s.LargeTileSlowdownXMemAvg, 100*s.LargeTileSlowdownXMemMax)
}
