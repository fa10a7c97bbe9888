package experiments

import (
	"fmt"
	"io"

	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// The ablation experiment isolates the design choices DESIGN.md calls out:
//
//   - AAM granularity (§4.2): coarser chunks shrink the table but blur the
//     hints;
//   - the §5.2 pinning budget (the paper picks 75% "so the cache still has
//     space to handle other data");
//   - the XMem prefetcher's run-ahead depth;
//   - the memory controller's FR-FCFS reordering (vs plain FCFS), which the
//     lazy-future DRAM model exists to preserve.

// AblationPoint is one knob setting.
type AblationPoint struct {
	Knob    string
	Setting string
	// Cycles of the system under study and the fixed reference it is
	// compared against (the reference row repeats per knob).
	Cycles    uint64
	RefCycles uint64
}

// Speedup is reference time over this setting's time.
func (p AblationPoint) Speedup() float64 { return float64(p.RefCycles) / float64(p.Cycles) }

// AblationResult is the full set of sweeps.
type AblationResult struct {
	Preset Preset
	Points []AblationPoint
}

// ablationKnobRef names the hidden reference point for the cache knobs:
// the Baseline system on the same thrashing kernel. Its outcome is
// stitched into every knob row's RefCycles after the sweep and does not
// appear in the result itself.
const ablationKnobRef = "ref"

// ablationPoints builds the sweep: one independent point per knob setting,
// plus the hidden reference point. All points are pure functions of the
// preset, so they parallelize and checkpoint freely.
func ablationPoints(p Preset) []runner.Point[AblationPoint] {
	tile := tunedTile(p.UC1Tiles, p.UC1L3) * 2 // past the cache: thrash regime
	kern := uc1Kernels(p)[0]
	mkWork := func() workload.Workload {
		return kern.Make(workload.TiledConfig{N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps})
	}

	var pts []runner.Point[AblationPoint]
	add := func(knob, setting string, cfg sim.Config) {
		pts = append(pts, runner.Point[AblationPoint]{
			Key: knob + "/" + setting,
			Run: func(*runner.Ctx) (AblationPoint, error) {
				r, err := sim.Run(cfg, mkWork())
				if err != nil {
					return AblationPoint{}, err
				}
				return AblationPoint{Knob: knob, Setting: setting, Cycles: r.Cycles}, nil
			},
			Line: func(a AblationPoint) string {
				return fmt.Sprintf("ablation %-14s %-10s cycles=%12d\n", a.Knob, a.Setting, a.Cycles)
			},
		})
	}

	// The reference: the Baseline system on the thrashing kernel.
	add(ablationKnobRef, "baseline", uc1Config(p, p.UC1L3, false, false))

	// AAM granularity.
	for _, gran := range []uint64{512, 1024, 4096} {
		cfg := uc1Config(p, p.UC1L3, true, false)
		cfg.AMU.AAMGranularityBytes = gran
		add("aam-gran", sizeLabel(gran), cfg)
	}

	// Pinning budget.
	for _, frac := range []float64{0.5, 0.75, 0.9} {
		cfg := uc1Config(p, p.UC1L3, true, false)
		cfg.L3.PinCapFraction = frac
		add("pin-cap", fmt.Sprintf("%.0f%%", 100*frac), cfg)
	}

	// XMem prefetch run-ahead.
	for _, deg := range []int{4, 16, 32, 64} {
		cfg := uc1Config(p, p.UC1L3, true, false)
		cfg.XMemDegree = deg
		add("pf-degree", fmt.Sprintf("%d", deg), cfg)
	}

	// Memory scheduler, on a multi-structure use-case-2 workload where
	// queue reordering matters most. FR-FCFS is its own reference.
	uc2 := uc2Specs(p)
	if len(uc2) > 0 {
		spec := uc2[0]
		for _, s := range uc2 {
			if s.Name == "leslie3d" {
				spec = s
			}
		}
		schedPoint := func(setting string, fcfs bool) {
			pts = append(pts, runner.Point[AblationPoint]{
				Key: "scheduler/" + setting,
				Run: func(*runner.Ctx) (AblationPoint, error) {
					cfg := uc2Config(p, p.XMemSchemes[0], sim.AllocRandom, true, false)
					cfg.FCFS = fcfs
					r, err := sim.Run(cfg, workload.Synthetic(spec))
					if err != nil {
						return AblationPoint{}, err
					}
					return AblationPoint{Knob: "scheduler", Setting: setting, Cycles: r.Cycles}, nil
				},
				Line: func(a AblationPoint) string {
					return fmt.Sprintf("ablation %-14s %-10s cycles=%12d\n", a.Knob, a.Setting, a.Cycles)
				},
			})
		}
		schedPoint("FR-FCFS", false)
		schedPoint("FCFS", true)
	}
	return pts
}

// runAblationSweep sweeps each knob on a thrashing tiled kernel (the
// regime the XMem machinery exists for) and, for the scheduler knob,
// additionally on a representative use-case-2 workload.
func runAblationSweep(p Preset, opt runner.Options) (AblationResult, error) {
	rows, err := runSweep("ablation", p, ablationPoints(p), opt)

	// Stitch the references in: the hidden baseline point feeds the cache
	// knobs; FR-FCFS feeds the scheduler knob; then drop the hidden point.
	var base, frFCFS uint64
	for _, a := range rows {
		switch {
		case a.Knob == ablationKnobRef:
			base = a.Cycles
		case a.Knob == "scheduler" && a.Setting == "FR-FCFS":
			frFCFS = a.Cycles
		}
	}
	res := AblationResult{Preset: p}
	for _, a := range rows {
		if a.Knob == ablationKnobRef {
			continue
		}
		if a.Knob == "scheduler" {
			a.RefCycles = frFCFS
		} else {
			a.RefCycles = base
		}
		res.Points = append(res.Points, a)
	}
	return res, err
}

// Print renders the sweeps.
func (r AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablations — design-choice sensitivity (preset %s)\n\n", r.Preset.Name)
	t := &table{}
	t.add("knob", "setting", "cycles", "speedup vs reference")
	for _, pt := range r.Points {
		t.addf("%s\t%s\t%d\t%.3f", pt.Knob, pt.Setting, pt.Cycles, pt.Speedup())
	}
	t.write(w)
	fmt.Fprintln(w, "\nReference for cache knobs: the Baseline system on the same thrashing kernel;")
	fmt.Fprintln(w, "reference for the scheduler knob: FR-FCFS on the same workload.")
}
