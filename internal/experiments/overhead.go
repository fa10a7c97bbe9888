package experiments

import (
	"fmt"
	"io"

	xm "xmem/internal/core"
	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// ALBPoint is one ALB size of the §4.2 coverage experiment.
type ALBPoint struct {
	Entries int
	HitRate float64
	Lookups uint64
}

// ALBResult reports ALB coverage across sizes for a representative
// use-case-1 kernel (the paper: a 256-entry ALB covers 98.9% of
// ATOM_LOOKUP requests).
type ALBResult struct {
	Preset   Preset
	Workload string
	Points   []ALBPoint
}

// albPoints builds the sweep: one independent point per ALB size on a
// representative use-case-1 kernel.
func albPoints(p Preset) []runner.Point[ALBPoint] {
	k := uc1Kernels(p)[0]
	tile := p.UC1Tiles[len(p.UC1Tiles)/2]
	var pts []runner.Point[ALBPoint]
	for _, entries := range []int{16, 64, 128, 256, 512} {
		entries := entries
		pts = append(pts, runner.Point[ALBPoint]{
			Key: fmt.Sprintf("entries=%d", entries),
			Run: func(*runner.Ctx) (ALBPoint, error) {
				w := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
				cfg := uc1Config(p, p.UC1L3, true, false)
				cfg.AMU.ALBEntries = entries
				r, err := sim.Run(cfg, w)
				if err != nil {
					return ALBPoint{}, err
				}
				return ALBPoint{Entries: entries, HitRate: r.ALBHitRate, Lookups: r.AMU.Lookups}, nil
			},
			Line: func(a ALBPoint) string {
				return fmt.Sprintf("alb entries=%4d hit=%.4f lookups=%d\n", a.Entries, a.HitRate, a.Lookups)
			},
		})
	}
	return pts
}

// runALBSweep measures ALB hit rates across ALB sizes on the sweep runner.
func runALBSweep(p Preset, opt runner.Options) (ALBResult, error) {
	k := uc1Kernels(p)[0]
	tile := p.UC1Tiles[len(p.UC1Tiles)/2]
	name := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps}).Name
	pts, err := runSweep("alb", p, albPoints(p), opt)
	return ALBResult{Preset: p, Workload: name, Points: pts}, err
}

// Print renders the ALB coverage table.
func (r ALBResult) Print(w io.Writer) {
	fmt.Fprintf(w, "ALB coverage (§4.2) — workload %s (preset %s)\n\n", r.Workload, r.Preset.Name)
	t := &table{}
	t.add("ALB entries", "hit rate", "lookups")
	for _, pt := range r.Points {
		t.addf("%d\t%.2f%%\t%d", pt.Entries, 100*pt.HitRate, pt.Lookups)
	}
	t.write(w)
	fmt.Fprintf(w, "\nPaper: a 256-entry ALB covers 98.9%% of ATOM_LOOKUP requests.\n")
}

// OverheadRow is one kernel's measured XMem instruction overhead.
type OverheadRow struct {
	Kernel       string
	XMemOps      uint64
	XMemInstrs   uint64
	TotalInstrs  uint64
	OverheadFrac float64
}

// CtxSwitchPoint is one context-switch frequency of the §4.4 sensitivity
// measurement: how much ALB coverage survives when the process is switched
// out (flushing the ALB and PATs) at the given interval.
type CtxSwitchPoint struct {
	IntervalCycles uint64 // 0 = never
	Switches       uint64
	ALBHitRate     float64
	Cycles         uint64
}

// OverheadResult is the §4.4 analysis: analytical storage overheads of the
// XMem structures plus the measured instruction overhead of the use-case-1
// kernels (paper: 0.014% average, at most 0.2%).
type OverheadResult struct {
	Preset Preset

	// Storage overheads (§4.4 category 1).
	ASTBytes uint64
	GATBytes uint64
	// AAMBytes/AAMFraction at the default 512 B / 8-bit configuration;
	// AAMSmallBytes/Fraction at 1 KB / 6-bit (§4.2).
	PhysBytes                 uint64
	AAMBytes, AAMSmallBytes   uint64
	AAMFraction, AAMSmallFrac float64

	// Instruction overheads (§4.4 category 2).
	Rows []OverheadRow
	// Context-switch sensitivity (§4.4 category 4): ALB coverage vs
	// forced-switch frequency.
	CtxPoints []CtxSwitchPoint
}

// overheadKernelPoints builds the instruction-overhead sweep: one point
// per use-case-1 kernel.
func overheadKernelPoints(p Preset) []runner.Point[OverheadRow] {
	tile := p.UC1Tiles[len(p.UC1Tiles)/2]
	var pts []runner.Point[OverheadRow]
	for _, k := range uc1Kernels(p) {
		k := k
		pts = append(pts, runner.Point[OverheadRow]{
			Key: k.Name,
			Run: func(*runner.Ctx) (OverheadRow, error) {
				w := k.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
				r, err := sim.Run(uc1Config(p, p.UC1L3, true, false), w)
				if err != nil {
					return OverheadRow{}, err
				}
				row := OverheadRow{
					Kernel:      k.Name,
					XMemOps:     r.Lib.RuntimeOps,
					XMemInstrs:  r.Lib.Instructions,
					TotalInstrs: r.Instructions,
				}
				if row.TotalInstrs > 0 {
					row.OverheadFrac = float64(row.XMemInstrs) / float64(row.TotalInstrs)
				}
				return row, nil
			},
			Line: func(r OverheadRow) string {
				return fmt.Sprintf("overhead %-10s ops=%6d instrs=%8d total=%12d frac=%.5f%%\n",
					r.Kernel, r.XMemOps, r.XMemInstrs, r.TotalInstrs, 100*r.OverheadFrac)
			},
		})
	}
	return pts
}

// overheadCtxPoints builds the context-switch sensitivity sweep on the
// first kernel: one point per forced-switch interval.
func overheadCtxPoints(p Preset) []runner.Point[CtxSwitchPoint] {
	tile := p.UC1Tiles[len(p.UC1Tiles)/2]
	k0 := uc1Kernels(p)[0]
	var pts []runner.Point[CtxSwitchPoint]
	for _, interval := range []uint64{0, 1 << 20, 1 << 17, 1 << 14} {
		interval := interval
		pts = append(pts, runner.Point[CtxSwitchPoint]{
			Key: fmt.Sprintf("interval=%d", interval),
			Run: func(*runner.Ctx) (CtxSwitchPoint, error) {
				w := k0.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
				cfg := uc1Config(p, p.UC1L3, true, false)
				cfg.ContextSwitchInterval = interval
				r, err := sim.Run(cfg, w)
				if err != nil {
					return CtxSwitchPoint{}, err
				}
				return CtxSwitchPoint{
					IntervalCycles: interval,
					Switches:       r.ContextSwitches,
					ALBHitRate:     r.ALBHitRate,
					Cycles:         r.Cycles,
				}, nil
			},
			Line: func(c CtxSwitchPoint) string {
				return fmt.Sprintf("overhead ctx-switch interval=%d switches=%d alb=%.4f\n",
					c.IntervalCycles, c.Switches, c.ALBHitRate)
			},
		})
	}
	return pts
}

// runOverheadSweep computes the §4.4 numbers: analytic storage overheads
// inline, then the instruction-overhead and context-switch sweeps on the
// runner.
func runOverheadSweep(p Preset, opt runner.Options) (OverheadResult, error) {
	phys := uint64(8) << 30 // the paper's 8 GB example
	res := OverheadResult{
		Preset:    p,
		ASTBytes:  xm.MaxAtoms / 8, // one bit per atom
		GATBytes:  uint64(xm.MaxAtoms) * xm.EncodedAttrBytes,
		PhysBytes: phys,
	}
	res.AAMBytes = xm.NewAAM(512).StorageOverheadBytes(phys, 8)
	res.AAMSmallBytes = xm.NewAAM(1024).StorageOverheadBytes(phys, 6)
	res.AAMFraction = float64(res.AAMBytes) / float64(phys)
	res.AAMSmallFrac = float64(res.AAMSmallBytes) / float64(phys)

	kernelOuts, err := runner.Run(sweepName("overhead-kernels", p), overheadKernelPoints(p), opt)
	if err != nil {
		return res, err
	}
	res.Rows = runner.Results(kernelOuts)

	ctxOuts, err := runner.Run(sweepName("overhead-ctx", p), overheadCtxPoints(p), opt)
	if err != nil {
		return res, err
	}
	res.CtxPoints = runner.Results(ctxOuts)

	if err := runner.FailErr(kernelOuts); err != nil {
		return res, err
	}
	return res, runner.FailErr(ctxOuts)
}

// AvgInstructionOverhead returns the mean instruction-overhead fraction.
func (r OverheadResult) AvgInstructionOverhead() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.OverheadFrac)
	}
	return mean(xs)
}

// MaxInstructionOverhead returns the worst instruction-overhead fraction.
func (r OverheadResult) MaxInstructionOverhead() float64 {
	var xs []float64
	for _, row := range r.Rows {
		xs = append(xs, row.OverheadFrac)
	}
	return maxOf(xs)
}

// Print renders the §4.4 overhead analysis.
func (r OverheadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Overhead analysis (§4.4, preset %s)\n\n", r.Preset.Name)
	fmt.Fprintf(w, "Storage (per application unless noted):\n")
	fmt.Fprintf(w, "  AST bitmap:        %4d B            (paper: 32 B)\n", r.ASTBytes)
	fmt.Fprintf(w, "  GAT (256 atoms):   %4.1f KB           (paper: ~%d B/atom)\n",
		float64(r.GATBytes)/1024, xm.EncodedAttrBytes)
	fmt.Fprintf(w, "  AAM @512B/8-bit:   %4d MB on %d GB = %.2f%% (paper: 0.2%%, 16 MB on 8 GB)\n",
		r.AAMBytes>>20, r.PhysBytes>>30, 100*r.AAMFraction)
	fmt.Fprintf(w, "  AAM @1KB/6-bit:    %4d MB on %d GB = %.3f%% (paper: 0.07%%)\n\n",
		r.AAMSmallBytes>>20, r.PhysBytes>>30, 100*r.AAMSmallFrac)

	fmt.Fprintf(w, "Instruction overhead (tile %s):\n", sizeLabel(r.Preset.UC1Tiles[len(r.Preset.UC1Tiles)/2]))
	t := &table{}
	t.add("kernel", "xmem ops", "xmem instrs", "total instrs", "overhead")
	for _, row := range r.Rows {
		t.addf("%s\t%d\t%d\t%d\t%.4f%%",
			row.Kernel, row.XMemOps, row.XMemInstrs, row.TotalInstrs, 100*row.OverheadFrac)
	}
	t.write(w)
	fmt.Fprintf(w, "\nSummary: +%.4f%% instructions avg, +%.4f%% max (paper: +0.014%% avg, at most +0.2%%)\n",
		100*r.AvgInstructionOverhead(), 100*r.MaxInstructionOverhead())

	fmt.Fprintf(w, "\nContext-switch sensitivity (ALB+PAT flush per switch, §4.4):\n")
	ct := &table{}
	ct.add("switch interval", "switches", "ALB hit rate", "cycles")
	for _, pt := range r.CtxPoints {
		label := "never"
		if pt.IntervalCycles > 0 {
			label = fmt.Sprintf("%d cycles", pt.IntervalCycles)
		}
		ct.addf("%s\t%d\t%.2f%%\t%d", label, pt.Switches, 100*pt.ALBHitRate, pt.Cycles)
	}
	ct.write(w)
}
