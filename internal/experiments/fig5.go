package experiments

import (
	"fmt"
	"io"
	"strings"

	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// Fig5Row is one kernel of the Figure 5 portability experiment: the tile is
// tuned for the full cache, then the same binary runs with the full, half,
// and quarter cache; the row reports the worst execution time across the
// three, normalized to the Baseline with the full cache.
type Fig5Row struct {
	Kernel    string
	TileBytes uint64
	// RefCycles is Baseline at the full cache (the normalization basis).
	RefCycles uint64
	// BaselineCycles/XMemCycles are per cache size, largest first.
	CacheSizes     []uint64
	BaselineCycles []uint64
	XMemCycles     []uint64
}

// MaxBaselineNorm is the worst Baseline execution time across cache sizes,
// normalized to the reference.
func (r Fig5Row) MaxBaselineNorm() float64 {
	worst := uint64(0)
	for _, c := range r.BaselineCycles {
		if c > worst {
			worst = c
		}
	}
	return float64(worst) / float64(r.RefCycles)
}

// MaxXMemNorm is the worst XMem execution time across cache sizes,
// normalized to the reference.
func (r Fig5Row) MaxXMemNorm() float64 {
	worst := uint64(0)
	for _, c := range r.XMemCycles {
		if c > worst {
			worst = c
		}
	}
	return float64(worst) / float64(r.RefCycles)
}

// Fig5Result is the full portability experiment.
type Fig5Result struct {
	Preset Preset
	Rows   []Fig5Row
}

// tunedTile returns the tile a static optimizer would pick for a cache of
// l3 bytes: the largest tile in the sweep that fits the cache (§5.1: "many
// optimizations typically size the tile to be as big as what can fit in the
// available cache space").
func tunedTile(tiles []uint64, l3 uint64) uint64 {
	best := tiles[0]
	for _, t := range tiles {
		if t <= l3 && t > best {
			best = t
		}
	}
	return best
}

// fig5Points builds the sweep: one point per kernel, each running the
// tuned tile against the full, half, and quarter caches.
func fig5Points(p Preset) []runner.Point[Fig5Row] {
	sizes := []uint64{p.UC1L3, p.UC1L3 / 2, p.UC1L3 / 4}
	var pts []runner.Point[Fig5Row]
	for _, k := range uc1Kernels(p) {
		pts = append(pts, runner.Point[Fig5Row]{
			Key: k.Name,
			Run: func(*runner.Ctx) (Fig5Row, error) {
				tile := tunedTile(p.UC1Tiles, p.UC1L3)
				w := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
				row := Fig5Row{Kernel: k.Name, TileBytes: tile, CacheSizes: sizes}
				for _, l3 := range sizes {
					base, err := sim.Run(uc1Config(p, l3, false, false), w)
					if err != nil {
						return Fig5Row{}, err
					}
					xmem, err := sim.Run(uc1Config(p, l3, true, false), w)
					if err != nil {
						return Fig5Row{}, err
					}
					row.BaselineCycles = append(row.BaselineCycles, base.Cycles)
					row.XMemCycles = append(row.XMemCycles, xmem.Cycles)
				}
				row.RefCycles = row.BaselineCycles[0]
				return row, nil
			},
			Line: func(r Fig5Row) string {
				var b strings.Builder
				for i, l3 := range r.CacheSizes {
					fmt.Fprintf(&b, "fig5 %-10s tile=%-7s L3=%-6s base=%12d xmem=%12d\n",
						r.Kernel, sizeLabel(r.TileBytes), sizeLabel(l3),
						r.BaselineCycles[i], r.XMemCycles[i])
				}
				return b.String()
			},
		})
	}
	return pts
}

// runFig5Sweep reproduces Figure 5 on the sweep runner: the tile is tuned
// for the preset's full L3 and the same binary runs with the full, half,
// and quarter caches.
func runFig5Sweep(p Preset, opt runner.Options) (Fig5Result, error) {
	rows, err := runSweep("fig5", p, fig5Points(p), opt)
	return Fig5Result{Preset: p, Rows: rows}, err
}

// Summary reports the §5.4 portability statistic: average worst-case
// execution-time increase when the cache is smaller than tuned for
// (paper: Baseline +55%, XMem +6%).
type Fig5Summary struct {
	BaselineIncreaseAvg float64
	XMemIncreaseAvg     float64
}

// Summarize computes the averages.
func (r Fig5Result) Summarize() Fig5Summary {
	var base, xmem []float64
	for _, row := range r.Rows {
		base = append(base, row.MaxBaselineNorm()-1)
		xmem = append(xmem, row.MaxXMemNorm()-1)
	}
	return Fig5Summary{BaselineIncreaseAvg: mean(base), XMemIncreaseAvg: mean(xmem)}
}

// Print renders the Figure 5 series.
func (r Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 5 — performance portability (preset %s; tile tuned for L3 %s, run on",
		r.Preset.Name, sizeLabel(r.Preset.UC1L3))
	if len(r.Rows) > 0 {
		for i, s := range r.Rows[0].CacheSizes {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, " %s", sizeLabel(s))
		}
	}
	fmt.Fprintf(w, ")\n\n")
	t := &table{}
	t.add("kernel", "tile", "max norm time (Baseline)", "max norm time (XMem)")
	for _, row := range r.Rows {
		t.addf("%s\t%s\t%.3f\t%.3f",
			row.Kernel, sizeLabel(row.TileBytes), row.MaxBaselineNorm(), row.MaxXMemNorm())
	}
	t.write(w)
	s := r.Summarize()
	fmt.Fprintf(w, "\nSummary: worst-case time increase with less cache: Baseline +%.1f%%, XMem +%.1f%% (paper: +55%%, +6%%)\n",
		100*s.BaselineIncreaseAvg, 100*s.XMemIncreaseAvg)
}
