package experiments

import (
	"fmt"
	"io"

	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// fig6Bandwidths returns the per-core DRAM bandwidths the paper's
// Figure 6 sweeps, largest first (a fresh slice per call, so no two
// results share one).
func fig6Bandwidths() []float64 { return []float64{2e9, 1e9, 0.5e9} }

// Fig6Row is one (kernel, bandwidth) point: speedups of the two XMem design
// points over the Baseline at the largest tile size (§5.4 "Effect of
// prefetching and cache management").
type Fig6Row struct {
	Kernel          string
	BandwidthPerSec float64
	BaselineCycles  uint64
	// XMemPrefCycles uses only XMem-guided prefetching (DRRIP manages the
	// cache); XMemCycles adds coordinated pinning.
	XMemPrefCycles uint64
	XMemCycles     uint64
}

// PrefSpeedup is Baseline/XMem-Pref.
func (r Fig6Row) PrefSpeedup() float64 {
	return float64(r.BaselineCycles) / float64(r.XMemPrefCycles)
}

// FullSpeedup is Baseline/XMem.
func (r Fig6Row) FullSpeedup() float64 {
	return float64(r.BaselineCycles) / float64(r.XMemCycles)
}

// Fig6Result is the full sweep. Bandwidths records the sweep's bandwidth
// axis (largest first, as run).
type Fig6Result struct {
	Preset     Preset
	Bandwidths []float64
	Rows       []Fig6Row
}

// fig6Points builds the sweep: one independent point per (kernel,
// bandwidth) at the largest tile size.
func fig6Points(p Preset) []runner.Point[Fig6Row] {
	largest := p.UC1Tiles[len(p.UC1Tiles)-1]
	var pts []runner.Point[Fig6Row]
	for _, k := range uc1Kernels(p) {
		k := k
		for _, bw := range fig6Bandwidths() {
			bw := bw
			pts = append(pts, runner.Point[Fig6Row]{
				Key: fmt.Sprintf("%s/bw=%.1fGB", k.Name, bw/1e9),
				Run: func(*runner.Ctx) (Fig6Row, error) {
					w := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: largest, Steps: p.UC1Steps})
					q := p
					q.UC1BandwidthPerCore = bw
					base, err := sim.Run(uc1Config(q, p.UC1L3, false, false), w)
					if err != nil {
						return Fig6Row{}, err
					}
					pref, err := sim.Run(uc1Config(q, p.UC1L3, false, true), w)
					if err != nil {
						return Fig6Row{}, err
					}
					full, err := sim.Run(uc1Config(q, p.UC1L3, true, false), w)
					if err != nil {
						return Fig6Row{}, err
					}
					return Fig6Row{
						Kernel: k.Name, BandwidthPerSec: bw,
						BaselineCycles: base.Cycles,
						XMemPrefCycles: pref.Cycles,
						XMemCycles:     full.Cycles,
					}, nil
				},
				Line: func(r Fig6Row) string {
					return fmt.Sprintf("fig6 %-10s bw=%.1fGB/s base=%12d pref=%12d xmem=%12d\n",
						r.Kernel, r.BandwidthPerSec/1e9, r.BaselineCycles, r.XMemPrefCycles, r.XMemCycles)
				},
			})
		}
	}
	return pts
}

// runFig6Sweep reproduces Figure 6 on the sweep runner: Baseline vs
// XMem-Pref vs XMem at the largest tile size, across per-core memory
// bandwidths.
func runFig6Sweep(p Preset, opt runner.Options) (Fig6Result, error) {
	rows, err := runSweep("fig6", p, fig6Points(p), opt)
	return Fig6Result{Preset: p, Bandwidths: fig6Bandwidths(), Rows: rows}, err
}

// GapAt returns the average advantage of full XMem over XMem-Pref at the
// given bandwidth (paper: 13%, 19.5%, 31% at 2, 1, 0.5 GB/s).
func (r Fig6Result) GapAt(bw float64) float64 {
	var gaps []float64
	for _, row := range r.Rows {
		if row.BandwidthPerSec == bw {
			gaps = append(gaps, float64(row.XMemPrefCycles)/float64(row.XMemCycles)-1)
		}
	}
	return mean(gaps)
}

// Print renders the Figure 6 series.
func (r Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6 — XMem vs XMem-Pref at the largest tile size (preset %s)\n\n", r.Preset.Name)
	t := &table{}
	t.add("kernel", "bw/core", "speedup XMem-Pref", "speedup XMem")
	for _, row := range r.Rows {
		t.addf("%s\t%.1fGB/s\t%.3f\t%.3f",
			row.Kernel, row.BandwidthPerSec/1e9, row.PrefSpeedup(), row.FullSpeedup())
	}
	t.write(w)
	fmt.Fprintf(w, "\nSummary: XMem over XMem-Pref: ")
	bws := r.Bandwidths
	if bws == nil {
		bws = fig6Bandwidths()
	}
	for i, bw := range bws {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "+%.1f%% @%.1fGB/s", 100*r.GapAt(bw), bw/1e9)
	}
	fmt.Fprintf(w, " (paper: +13%%, +19.5%%, +31%%)\n")
}
