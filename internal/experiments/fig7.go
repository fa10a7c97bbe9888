package experiments

import (
	"fmt"
	"io"

	"xmem/internal/experiments/runner"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// Fig7Row is one workload of the DRAM-placement experiment: the
// strengthened baseline (best of the physical mapping schemes, randomized
// VA→PA, prefetcher only if it helps, §6.3), XMem placement (§6.2), and the
// perfect-RBL upper bound (§6.4). The same runs supply Figure 8's latencies.
type Fig7Row struct {
	Workload string
	// BaselineScheme and BaselinePrefetch record the winning baseline
	// configuration; XMemScheme records XMem's own best-of choice among
	// the placement-compatible mappings.
	BaselineScheme   string
	BaselinePrefetch bool
	XMemScheme       string

	BaselineCycles uint64
	XMemCycles     uint64
	IdealCycles    uint64

	// Read/write latencies (cycles) for Figure 8.
	BaselineReadLat  float64
	XMemReadLat      float64
	BaselineWriteLat float64
	XMemWriteLat     float64
	// Tail latencies (95th percentile, bucketed upper bound).
	BaselineReadP95 uint64
	XMemReadP95     uint64

	// Row-buffer hit rates (diagnostics).
	BaselineRowHit float64
	XMemRowHit     float64

	// L3MPKI of the baseline run (memory intensity, §6.3 selects
	// workloads with MPKI > 1).
	L3MPKI float64
}

// XMemSpeedup is Baseline/XMem.
func (r Fig7Row) XMemSpeedup() float64 { return float64(r.BaselineCycles) / float64(r.XMemCycles) }

// IdealSpeedup is Baseline/Ideal.
func (r Fig7Row) IdealSpeedup() float64 { return float64(r.BaselineCycles) / float64(r.IdealCycles) }

// NormReadLat is XMem read latency normalized to Baseline.
func (r Fig7Row) NormReadLat() float64 {
	if r.BaselineReadLat == 0 {
		return 1
	}
	return r.XMemReadLat / r.BaselineReadLat
}

// NormWriteLat is XMem write latency normalized to Baseline.
func (r Fig7Row) NormWriteLat() float64 {
	if r.BaselineWriteLat == 0 {
		return 1
	}
	return r.XMemWriteLat / r.BaselineWriteLat
}

// Fig7Result is the full experiment.
type Fig7Result struct {
	Preset Preset
	Rows   []Fig7Row
}

// uc2Specs resolves the preset's workload list, in the list's order, at
// its scale.
func uc2Specs(p Preset) []workload.SynthSpec {
	all := workload.Suite27()
	names := p.UC2Workloads
	if names == nil {
		names = workload.SuiteNames()
	}
	var out []workload.SynthSpec
	for _, name := range names {
		for _, spec := range all {
			if spec.Name == name {
				out = append(out, spec.Scaled(p.UC2Scale))
			}
		}
	}
	return out
}

func uc2Config(p Preset, scheme string, alloc sim.AllocPolicy, pf, ideal bool) sim.Config {
	cfg := sim.FastConfig(p.UC2L3)
	cfg.Scheme = scheme
	cfg.Alloc = alloc
	cfg.AllocSeed = 42
	cfg.StridePrefetch = pf
	cfg.IdealRBL = ideal
	return cfg
}

// fig7Points builds the sweep: one independent point per workload. Each
// point runs the full baseline scheme search, the XMem placement search,
// and the ideal-RBL bound; the randomized allocator seed stays fixed so a
// point's result is a pure function of the preset.
func fig7Points(p Preset) []runner.Point[Fig7Row] {
	var pts []runner.Point[Fig7Row]
	for _, spec := range uc2Specs(p) {
		spec := spec
		pts = append(pts, runner.Point[Fig7Row]{
			Key: spec.Name,
			Run: func(*runner.Ctx) (Fig7Row, error) {
				return runFig7Workload(p, spec)
			},
			Line: func(r Fig7Row) string {
				return fmt.Sprintf("fig7 %-12s base=%12d (%s, pf=%v) xmem=%12d (x%.3f) ideal=%12d (x%.3f)\n",
					r.Workload, r.BaselineCycles, r.BaselineScheme, r.BaselinePrefetch,
					r.XMemCycles, r.XMemSpeedup(), r.IdealCycles, r.IdealSpeedup())
			},
		})
	}
	return pts
}

// runFig7Workload evaluates one workload: it searches the baseline's
// mapping schemes (prefetcher on), retries the winner with the prefetcher
// off, then runs XMem placement and the ideal-RBL system with the same
// prefetcher choice.
func runFig7Workload(p Preset, spec workload.SynthSpec) (Fig7Row, error) {
	w := workload.Synthetic(spec)

	var best sim.Result
	bestScheme := ""
	for _, scheme := range p.Schemes {
		r, err := sim.Run(uc2Config(p, scheme, sim.AllocRandom, true, false), w)
		if err != nil {
			return Fig7Row{}, err
		}
		if bestScheme == "" || r.Cycles < best.Cycles {
			best, bestScheme = r, scheme
		}
	}
	pf := true
	if r, err := sim.Run(uc2Config(p, bestScheme, sim.AllocRandom, false, false), w); err != nil {
		return Fig7Row{}, err
	} else if r.Cycles < best.Cycles {
		best, pf = r, false
	}

	// XMem gets the same best-of strengthening over the mappings its
	// bank-targeting placement supports.
	var xmem sim.Result
	xmemScheme := ""
	for _, scheme := range p.XMemSchemes {
		r, err := sim.Run(uc2Config(p, scheme, sim.AllocXMemPlacement, pf, false), w)
		if err != nil {
			return Fig7Row{}, err
		}
		if xmemScheme == "" || r.Cycles < xmem.Cycles {
			xmem, xmemScheme = r, scheme
		}
	}
	ideal, err := sim.Run(uc2Config(p, bestScheme, sim.AllocRandom, pf, true), w)
	if err != nil {
		return Fig7Row{}, err
	}

	return Fig7Row{
		Workload:         spec.Name,
		BaselineScheme:   bestScheme,
		BaselinePrefetch: pf,
		XMemScheme:       xmemScheme,
		BaselineCycles:   best.Cycles,
		XMemCycles:       xmem.Cycles,
		IdealCycles:      ideal.Cycles,
		BaselineReadLat:  best.DRAM.AvgDemandReadLatency(),
		XMemReadLat:      xmem.DRAM.AvgDemandReadLatency(),
		BaselineReadP95:  best.DRAM.ReadLatency.Percentile(95),
		XMemReadP95:      xmem.DRAM.ReadLatency.Percentile(95),
		BaselineWriteLat: best.DRAM.AvgWriteLatency(),
		XMemWriteLat:     xmem.DRAM.AvgWriteLatency(),
		BaselineRowHit:   best.DRAM.RowHitRate(),
		XMemRowHit:       xmem.DRAM.RowHitRate(),
		L3MPKI:           best.L3MPKI,
	}, nil
}

// runFig7Sweep reproduces Figures 7 and 8 on the sweep runner.
func runFig7Sweep(p Preset, opt runner.Options) (Fig7Result, error) {
	rows, err := runSweep("fig7", p, fig7Points(p), opt)
	return Fig7Result{Preset: p, Rows: rows}, err
}

// Fig7Summary condenses the experiment the way §6.4 reports it.
type Fig7Summary struct {
	// XMemSpeedupAvg/Max (paper: +8.5% avg, up to +31.9%).
	XMemSpeedupAvg, XMemSpeedupMax float64
	// IdealSpeedupAvg (paper: +24.4% avg — the RBL headroom).
	IdealSpeedupAvg float64
	// ReadLatReductionAvg/Max (paper: -12.6% avg, up to -31.4%).
	ReadLatReductionAvg, ReadLatReductionMax float64
	// WriteLatReductionAvg (paper: -6.2%).
	WriteLatReductionAvg float64
}

// Summarize computes the §6.4 summary.
func (r Fig7Result) Summarize() Fig7Summary {
	var sp, ideal, rl, wl []float64
	maxSp, maxRl := 0.0, 0.0
	for _, row := range r.Rows {
		s := row.XMemSpeedup() - 1
		sp = append(sp, s)
		if s > maxSp {
			maxSp = s
		}
		ideal = append(ideal, row.IdealSpeedup()-1)
		red := 1 - row.NormReadLat()
		rl = append(rl, red)
		if red > maxRl {
			maxRl = red
		}
		wl = append(wl, 1-row.NormWriteLat())
	}
	return Fig7Summary{
		XMemSpeedupAvg:       mean(sp),
		XMemSpeedupMax:       maxSp,
		IdealSpeedupAvg:      mean(ideal),
		ReadLatReductionAvg:  mean(rl),
		ReadLatReductionMax:  maxRl,
		WriteLatReductionAvg: mean(wl),
	}
}

// Print renders the Figure 7 series (speedups).
func (r Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7 — DRAM placement speedup over strengthened baseline (preset %s)\n\n", r.Preset.Name)
	t := &table{}
	t.add("workload", "base scheme", "pf", "xmem scheme", "speedup XMem", "speedup Ideal", "rowhit base", "rowhit xmem", "MPKI")
	for _, row := range r.Rows {
		t.addf("%s\t%s\t%v\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f",
			row.Workload, row.BaselineScheme, row.BaselinePrefetch, row.XMemScheme,
			row.XMemSpeedup(), row.IdealSpeedup(),
			row.BaselineRowHit, row.XMemRowHit, row.L3MPKI)
	}
	t.write(w)
	s := r.Summarize()
	fmt.Fprintf(w, "\nSummary: XMem +%.1f%% avg (max +%.1f%%); Ideal-RBL +%.1f%% avg (paper: +8.5%%, max +31.9%%; ideal +24.4%%)\n",
		100*s.XMemSpeedupAvg, 100*s.XMemSpeedupMax, 100*s.IdealSpeedupAvg)
}

// PrintFig8 renders the Figure 8 series (normalized memory latencies) from
// the same runs.
func (r Fig7Result) PrintFig8(w io.Writer) {
	fmt.Fprintf(w, "Figure 8 — memory read latency normalized to baseline (preset %s)\n\n", r.Preset.Name)
	t := &table{}
	t.add("workload", "norm read latency", "norm write latency", "p95 base", "p95 xmem")
	for _, row := range r.Rows {
		t.addf("%s\t%.3f\t%.3f\t%d\t%d",
			row.Workload, row.NormReadLat(), row.NormWriteLat(),
			row.BaselineReadP95, row.XMemReadP95)
	}
	t.write(w)
	s := r.Summarize()
	fmt.Fprintf(w, "\nSummary: read latency %+.1f%% avg (best %+.1f%%), write latency %+.1f%% avg (paper: -12.6%%, best -31.4%%; writes -6.2%%)\n",
		-100*s.ReadLatReductionAvg, -100*s.ReadLatReductionMax, -100*s.WriteLatReductionAvg)
}
