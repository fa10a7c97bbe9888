package experiments

import (
	"fmt"
	"io"

	"xmem/internal/core"
	"xmem/internal/experiments/runner"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// The NUMA experiment demonstrates the Table 1 "data placement: NUMA
// systems" use case: worker threads on two sockets access mostly-private
// data. A semantics-blind OS either interleaves pages (half the accesses
// remote) or suffers the first-touch-by-main-thread pathology (the
// initializing thread's node holds everything). XMem's Home attribute
// relates each structure to the thread that accesses it, so the OS
// co-locates pages at allocation time — no profiling, no migration.

// NumaRow is one placement policy's outcome.
type NumaRow struct {
	Placement string
	// Cycles is the finishing time of the slowest worker.
	Cycles uint64
	// RemoteFraction is the share of memory accesses that crossed the
	// interconnect.
	RemoteFraction float64
	// AvgReadLatency is the mean demand-read latency.
	AvgReadLatency float64
}

// NumaResult is the comparison.
type NumaResult struct {
	Preset Preset
	Rows   []NumaRow
}

// Speedup of the xmem row over the named baseline row.
func (r NumaResult) Speedup(baseline string) float64 {
	var base, xmem uint64
	for _, row := range r.Rows {
		if row.Placement == baseline {
			base = row.Cycles
		}
		if row.Placement == "xmem" {
			xmem = row.Cycles
		}
	}
	if xmem == 0 {
		return 0
	}
	return float64(base) / float64(xmem)
}

// numaWorker builds worker t's workload: a hot private stream and a private
// irregular structure, both Home-tagged, plus a small untagged scratch
// area.
func numaWorker(t int, scale float64) workload.Workload {
	spec := workload.SynthSpec{
		Name: fmt.Sprintf("worker%d", t),
		Structs: []workload.StructSpec{
			{Name: "field", SizeBytes: 12 << 20, Pattern: core.PatternRegular,
				StrideBytes: mem.LineBytes, Intensity: 180, RW: core.ReadWrite,
				WritePct: 25, Home: core.HomeThread(t)},
			{Name: "index", SizeBytes: 6 << 20, Pattern: core.PatternIrregular,
				Intensity: 90, RW: core.ReadOnly, Home: core.HomeThread(t)},
			{Name: "scratch", SizeBytes: 1 << 20, Pattern: core.PatternRegular,
				StrideBytes: mem.LineBytes, Intensity: 40, RW: core.ReadWrite, WritePct: 50},
		},
		Accesses: 180000,
		WorkPer:  6,
	}
	return workload.Synthetic(spec.Scaled(scale))
}

// numaPoints builds the sweep: one independent point per placement policy
// on a two-node machine with one worker per node.
func numaPoints(p Preset) []runner.Point[NumaRow] {
	var pts []runner.Point[NumaRow]
	for _, placement := range []string{"node0", "interleave", "xmem"} {
		pts = append(pts, runner.Point[NumaRow]{
			Key: placement,
			Run: func(*runner.Ctx) (NumaRow, error) {
				ws := []workload.Workload{numaWorker(0, p.UC2Scale), numaWorker(1, p.UC2Scale)}
				cfg := sim.MultiConfig{
					Core: sim.FastConfig(p.UC2L3),
					NUMA: &sim.NUMAConfig{
						Nodes:     2,
						NodeBytes: 128 << 20,
						Placement: placement,
					},
				}
				r, err := sim.RunMulti(cfg, ws)
				if err != nil {
					return NumaRow{}, err
				}
				return NumaRow{
					Placement:      placement,
					Cycles:         r.Cycles,
					RemoteFraction: r.RemoteFraction,
					AvgReadLatency: r.DRAM.AvgDemandReadLatency(),
				}, nil
			},
			Line: func(r NumaRow) string {
				return fmt.Sprintf("numa %-11s cycles=%11d remote=%.1f%% readlat=%.0f\n",
					r.Placement, r.Cycles, 100*r.RemoteFraction, r.AvgReadLatency)
			},
		})
	}
	return pts
}

// runNumaSweep compares the placement policies on the sweep runner.
func runNumaSweep(p Preset, opt runner.Options) (NumaResult, error) {
	rows, err := runSweep("numa", p, numaPoints(p), opt)
	return NumaResult{Preset: p, Rows: rows}, err
}

// Print renders the comparison.
func (r NumaResult) Print(w io.Writer) {
	fmt.Fprintf(w, "NUMA extension — Table 1 thread-affine placement (preset %s; 2 nodes, 2 workers)\n\n", r.Preset.Name)
	t := &table{}
	t.add("placement", "cycles", "remote accesses", "avg read latency")
	for _, row := range r.Rows {
		t.addf("%s\t%d\t%.1f%%\t%.0f cycles",
			row.Placement, row.Cycles, 100*row.RemoteFraction, row.AvgReadLatency)
	}
	t.write(w)
	fmt.Fprintf(w, "\nSummary: XMem Home-attribute placement is %.2fx vs first-touch-on-node0 and %.2fx vs interleave\n",
		r.Speedup("node0"), r.Speedup("interleave"))
}
