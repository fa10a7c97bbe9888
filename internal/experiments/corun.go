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

// The co-run experiment extends the paper's portability story (§2,
// Implication 2: "memory resource availability can change ... in the
// presence of co-running applications") to the resource our multi-core
// model shares: DRAM bandwidth and banks. A tuned tiled kernel runs next to
// 0-3 streaming antagonists on cores with private caches and a shared
// memory controller; the row reports how much the kernel slows down, for
// the Baseline and for XMem.

// CorunRow is one (kernel, co-runner count) point.
type CorunRow struct {
	Kernel    string
	CoRunners int
	// BaselineCycles/XMemCycles are the kernel's finishing times.
	BaselineCycles uint64
	XMemCycles     uint64
	// BaselineSolo/XMemSolo are the 0-co-runner references.
	BaselineSolo uint64
	XMemSolo     uint64
}

// BaselineSlowdown is the kernel's co-run time over its solo time.
func (r CorunRow) BaselineSlowdown() float64 {
	return float64(r.BaselineCycles) / float64(r.BaselineSolo)
}

// XMemSlowdown is the XMem counterpart.
func (r CorunRow) XMemSlowdown() float64 {
	return float64(r.XMemCycles) / float64(r.XMemSolo)
}

// CorunResult is the full sweep.
type CorunResult struct {
	Preset Preset
	Rows   []CorunRow
}

// antagonist is a bandwidth-hungry streaming co-runner.
func antagonist(idx int, lines int) workload.Workload {
	name := fmt.Sprintf("antagonist%d", idx)
	return workload.Workload{
		Name: name,
		Declare: func(lib *core.Lib) {
			lib.CreateAtom(name+".buf", core.Attributes{
				Pattern: core.PatternRegular, StrideBytes: mem.LineBytes, Intensity: 150,
			})
		},
		Run: func(p workload.Program) {
			id := p.Lib().CreateAtom(name+".buf", core.Attributes{
				Pattern: core.PatternRegular, StrideBytes: mem.LineBytes, Intensity: 150,
			})
			size := uint64(lines) * mem.LineBytes
			buf := p.Malloc("buf", size, id)
			p.Lib().AtomMap(id, buf, size)
			p.Lib().AtomActivate(id)
			for r := 0; r < 6; r++ {
				for i := 0; i < lines; i++ {
					p.Load(1, buf+mem.Addr(i*mem.LineBytes))
					p.Work(2)
				}
			}
		},
	}
}

// corunPoints builds the sweep: one independent point per (kernel,
// co-runner count). Solo references are stitched in after the sweep from
// each kernel's 0-co-runner row.
func corunPoints(p Preset) []runner.Point[CorunRow] {
	tile := p.UC1L3 / 2
	antagonistLines := int(4 * p.UC1L3 / mem.LineBytes)
	var pts []runner.Point[CorunRow]
	for _, k := range uc1Kernels(p) {
		for _, corunners := range []int{0, 1, 2, 3} {
			pts = append(pts, runner.Point[CorunRow]{
				Key: fmt.Sprintf("%s/co=%d", k.Name, corunners),
				Run: func(*runner.Ctx) (CorunRow, error) {
					run := func(xmem bool) (uint64, error) {
						ws := []workload.Workload{k.Make(workload.TiledConfig{
							N: p.UC1N, TileBytes: tile, Steps: p.UC1Steps,
						})}
						for i := 0; i < corunners; i++ {
							ws = append(ws, antagonist(i, antagonistLines))
						}
						cfg := sim.MultiConfig{Core: uc1Config(p, p.UC1L3, xmem, false)}
						r, err := sim.RunMulti(cfg, ws)
						if err != nil {
							return 0, err
						}
						return r.Cores[0].Cycles, nil
					}
					base, err := run(false)
					if err != nil {
						return CorunRow{}, err
					}
					xm, err := run(true)
					if err != nil {
						return CorunRow{}, err
					}
					return CorunRow{
						Kernel: k.Name, CoRunners: corunners,
						BaselineCycles: base, XMemCycles: xm,
					}, nil
				},
				Line: func(r CorunRow) string {
					return fmt.Sprintf("corun %-10s +%d base=%12d xmem=%12d\n",
						r.Kernel, r.CoRunners, r.BaselineCycles, r.XMemCycles)
				},
			})
		}
	}
	return pts
}

// runCorunSweep measures kernel slowdown under 0-3 streaming co-runners
// for the Baseline and XMem systems. The kernel uses the tile a static
// optimizer would pick for the preset's cache.
func runCorunSweep(p Preset, opt runner.Options) (CorunResult, error) {
	rows, err := runSweep("corun", p, corunPoints(p), opt)

	// Stitch the solo (0-co-runner) references into every row.
	baseSolo := map[string]uint64{}
	xmemSolo := map[string]uint64{}
	for _, r := range rows {
		if r.CoRunners == 0 {
			baseSolo[r.Kernel], xmemSolo[r.Kernel] = r.BaselineCycles, r.XMemCycles
		}
	}
	res := CorunResult{Preset: p}
	for _, r := range rows {
		r.BaselineSolo, r.XMemSolo = baseSolo[r.Kernel], xmemSolo[r.Kernel]
		res.Rows = append(res.Rows, r)
	}
	return res, err
}

// Print renders the co-run sweep.
func (r CorunResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Co-run extension — kernel slowdown under shared-DRAM antagonists (preset %s)\n\n", r.Preset.Name)
	t := &table{}
	t.add("kernel", "co-runners", "baseline slowdown", "xmem slowdown", "xmem/baseline time")
	for _, row := range r.Rows {
		t.addf("%s\t%d\t%.3fx\t%.3fx\t%.3f",
			row.Kernel, row.CoRunners, row.BaselineSlowdown(), row.XMemSlowdown(),
			float64(row.XMemCycles)/float64(row.BaselineCycles))
	}
	t.write(w)
	fmt.Fprintf(w, "\nXMem's pinning cuts the kernel's DRAM traffic, so bandwidth thieves hurt it less.\n")
}
