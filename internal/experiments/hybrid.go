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

// The hybrid-memory experiment demonstrates the Table 1 "data placement:
// hybrid memories" use case: a small fast DRAM tier in front of a large NVM
// tier with asymmetric writes. The semantics-blind baseline fills DRAM in
// allocation order; XMem reads each structure's read/write characteristics
// and access intensity from the atom segment and reserves the fast tier for
// written and hot data, keeping read-only structures in NVM where the write
// asymmetry cannot hurt them.

// HybridRow is one workload of the comparison.
type HybridRow struct {
	Workload string
	// FootprintBytes is the workload's total data footprint; the DRAM
	// tier holds DRAMFraction of it.
	FootprintBytes uint64
	// AllDRAMCycles is the reference with everything in DRAM.
	AllDRAMCycles uint64
	// NaiveCycles fills the small DRAM tier first-touch.
	NaiveCycles uint64
	// XMemCycles uses the atom-driven tier policy.
	XMemCycles uint64
}

// Speedup is naive time over XMem time.
func (r HybridRow) Speedup() float64 { return float64(r.NaiveCycles) / float64(r.XMemCycles) }

// GapClosed is the fraction of the naive-to-all-DRAM gap XMem recovers.
func (r HybridRow) GapClosed() float64 {
	gap := float64(r.NaiveCycles) - float64(r.AllDRAMCycles)
	if gap <= 0 {
		return 0
	}
	return (float64(r.NaiveCycles) - float64(r.XMemCycles)) / gap
}

// HybridResult is the full comparison.
type HybridResult struct {
	Preset Preset
	// DRAMFraction of the footprint fits in the fast tier.
	DRAMFraction float64
	Rows         []HybridRow
}

// hybridSpecs are purpose-built workloads whose allocation order is
// realistic but adversarial for first-touch tiering: large read-only data
// sets are allocated up front (as real programs do with input arenas),
// followed by the hot read-write state. Without semantics, first-touch
// burns the fast tier on the cold input; XMem reads the atoms' RWChar and
// intensity from the segment and reserves DRAM for the written/hot
// structures — no profiling, no migration (Table 1).
func hybridSpecs() []workload.SynthSpec {
	w := func(name string, accesses int, structs ...workload.StructSpec) workload.SynthSpec {
		return workload.SynthSpec{Name: name, Structs: structs, Accesses: accesses, WorkPer: 6}
	}
	const n = 200000
	return []workload.SynthSpec{
		w("graphrank", n,
			roStream("edges", 24, 120),
			roGather("neighbors", 8, 80),
			rwStream("ranks", 6, 180, 50),
			rwRandom("frontier", 2, 140, 30)),
		w("kvstore", n,
			roStream("sstable", 28, 110),
			roGather("bloom", 2, 90),
			rwRandom("memtable", 4, 190, 45),
			rwStream("log", 2, 150, 90)),
		w("training", n,
			roStream("dataset", 32, 130),
			rwStream("weights", 6, 180, 40),
			rwStream("gradients", 6, 160, 60)),
		w("render", n,
			roStream("scene", 20, 100),
			roGather("textures", 12, 120),
			rwStream("framebuf", 4, 170, 70)),
		w("analytics", n,
			roStream("columns", 30, 140),
			rwRandom("hashagg", 5, 180, 40),
			rwStream("spill", 3, 120, 80)),
		w("simulation", n,
			roStream("mesh", 16, 110),
			roGather("bc", 4, 60),
			rwStream("state", 8, 190, 35)),
	}
}

func roStream(name string, mb int, intensity uint8) workload.StructSpec {
	return workload.StructSpec{Name: name, SizeBytes: uint64(mb) << 20,
		Pattern: core.PatternRegular, StrideBytes: mem.LineBytes,
		Intensity: intensity, RW: core.ReadOnly}
}

func roGather(name string, mb int, intensity uint8) workload.StructSpec {
	return workload.StructSpec{Name: name, SizeBytes: uint64(mb) << 20,
		Pattern: core.PatternIrregular, Intensity: intensity, RW: core.ReadOnly}
}

func rwStream(name string, mb int, intensity uint8, writePct int) workload.StructSpec {
	return workload.StructSpec{Name: name, SizeBytes: uint64(mb) << 20,
		Pattern: core.PatternRegular, StrideBytes: mem.LineBytes,
		Intensity: intensity, RW: core.ReadWrite, WritePct: writePct}
}

func rwRandom(name string, mb int, intensity uint8, writePct int) workload.StructSpec {
	return workload.StructSpec{Name: name, SizeBytes: uint64(mb) << 20,
		Pattern: core.PatternNonDet, Intensity: intensity,
		RW: core.ReadWrite, WritePct: writePct}
}

// hybridDRAMFraction of the footprint fits in the fast tier.
const hybridDRAMFraction = 0.25

// hybridPoints builds the sweep: one independent point per workload, each
// running the all-DRAM reference, the naive first-touch hybrid, and the
// XMem-placed hybrid.
func hybridPoints(p Preset) []runner.Point[HybridRow] {
	var pts []runner.Point[HybridRow]
	for _, base := range hybridSpecs() {
		spec := base.Scaled(p.UC2Scale)
		pts = append(pts, runner.Point[HybridRow]{
			Key: spec.Name,
			Run: func(*runner.Ctx) (HybridRow, error) {
				var footprint uint64
				for _, s := range spec.Structs {
					footprint += s.SizeBytes
				}
				run := func(dramBytes uint64, xmem bool) (uint64, error) {
					cfg := sim.FastConfig(p.UC2L3)
					cfg.Hybrid = &sim.HybridConfig{
						DRAMBytes:     pageAlign(dramBytes),
						NVMBytes:      pageAlign(4 * footprint),
						XMemPlacement: xmem,
					}
					r, err := sim.Run(cfg, workload.Synthetic(spec))
					if err != nil {
						return 0, err
					}
					return r.Cycles, nil
				}
				small := uint64(float64(footprint) * hybridDRAMFraction)
				row := HybridRow{Workload: spec.Name, FootprintBytes: footprint}
				var err error
				if row.AllDRAMCycles, err = run(2*footprint, false); err != nil {
					return HybridRow{}, err
				}
				if row.NaiveCycles, err = run(small, false); err != nil {
					return HybridRow{}, err
				}
				if row.XMemCycles, err = run(small, true); err != nil {
					return HybridRow{}, err
				}
				return row, nil
			},
			Line: func(r HybridRow) string {
				return fmt.Sprintf("hybrid %-10s allDRAM=%11d naive=%11d xmem=%11d (x%.3f, gap closed %.0f%%)\n",
					r.Workload, r.AllDRAMCycles, r.NaiveCycles, r.XMemCycles,
					r.Speedup(), 100*r.GapClosed())
			},
		})
	}
	return pts
}

// runHybridSweep compares all-DRAM, naive hybrid, and XMem hybrid
// placement on the sweep runner.
func runHybridSweep(p Preset, opt runner.Options) (HybridResult, error) {
	rows, err := runSweep("hybrid", p, hybridPoints(p), opt)
	return HybridResult{Preset: p, DRAMFraction: hybridDRAMFraction, Rows: rows}, err
}

func pageAlign(b uint64) uint64 {
	const page = 4096
	return (b + page - 1) / page * page
}

// Print renders the comparison.
func (r HybridResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Hybrid-memory extension — Table 1 tier placement (preset %s; fast tier = %.0f%% of footprint)\n\n",
		r.Preset.Name, 100*r.DRAMFraction)
	t := &table{}
	t.add("workload", "all-DRAM", "naive hybrid", "xmem hybrid", "xmem speedup", "gap closed")
	for _, row := range r.Rows {
		t.addf("%s\t%d\t%d\t%d\t%.3f\t%.0f%%",
			row.Workload, row.AllDRAMCycles, row.NaiveCycles, row.XMemCycles,
			row.Speedup(), 100*row.GapClosed())
	}
	t.write(w)
	var sp []float64
	for _, row := range r.Rows {
		sp = append(sp, row.Speedup()-1)
	}
	fmt.Fprintf(w, "\nSummary: XMem tier placement +%.1f%% avg over naive first-touch filling\n", 100*mean(sp))
}
