package main

import (
	"fmt"
	"math/rand"

	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// point is one sweep point: a machine configuration and the workloads it
// runs, one per core. Multi-core points run on sim.RunMulti with cfg as the
// per-core configuration; single-core points run on sim.Run. A point holds
// only configurations and workload values, never a built machine, so sweep
// points share no simulator state.
type point struct {
	key   string
	cfg   sim.Config
	ws    []workload.Workload
	multi bool
}

// benchWorkload is one named workload of the benchmark: a fixed list of
// sweep points whose inputs are drawn from the seed.
type benchWorkload struct {
	name string
	// points builds the sweep. size scales every point's input (1 is the
	// benchmark size; tests use less).
	points func(seed int64, size float64) []point
}

// workloads lists the benchmark's workloads in report order. Each draws its
// seed-dependent inputs from a band chosen so that the mix of work, and so
// the host cost per access, stays the same from seed to seed: the seed
// changes which inputs run, not what the run measures.
func workloads() []benchWorkload {
	return []benchWorkload{
		{name: "tiled", points: tiledPoints},
		{name: "placement", points: placementPoints},
		{name: "corun", points: corunPoints},
		{name: "join", points: joinPoints},
	}
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// l3Bytes is the L3 of the use-case-1 machine (tiled, corun, join); the
// placement workload uses the Fig-7 machine's placementL3Bytes.
const (
	l3Bytes          = 128 << 10
	placementL3Bytes = 256 << 10
)

// uc1Bandwidth is the paper's per-core DRAM bandwidth (Table 3).
const uc1Bandwidth = 2.1e9

// spanEvery is the 1-in-N span sampling period of runs with observation on.
const spanEvery = 1000

// system is one of the two machines every use case compares.
type system struct {
	name string
	xmem bool
}

var systems = [...]system{{"baseline", false}, {"xmem", true}}

// draw returns a value drawn uniformly from [lo, hi].
func draw(rng *rand.Rand, lo, hi uint64) uint64 {
	return lo + uint64(rng.Int63n(int64(hi-lo+1)))
}

// scaled scales n by size, rounded down to a multiple of 8 and at least 32.
func scaled(n int, size float64) int {
	s := int(float64(n)*size) / 8 * 8
	if s < 32 {
		s = 32
	}
	return s
}

func kernelMaker(name string) func(workload.TiledConfig) workload.Workload {
	for _, k := range workload.Kernels() {
		if k.Name == name {
			return k.Make
		}
	}
	panic("xmem-perf: unknown kernel " + name)
}

func uc1Config(xmemCache bool) sim.Config {
	cfg := sim.FastConfig(l3Bytes).WithUseCase1Bandwidth(uc1Bandwidth)
	cfg.XMemCache = xmemCache
	return cfg
}

// shuffle puts the points in a seed-drawn order.
func shuffle(rng *rand.Rand, pts []point) []point {
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// tiledPoints is the Fig-4 use case: four kernels at N=128, each with a tile
// that fits the L3 (L3/4) and one that thrashes it (4×L3, the whole
// matrix), on Baseline and XMem. The seed draws the order the points run
// in. (Seed-drawn tile sizes or frame layouts moved allocations per access
// by 3-4% from seed to seed, more than the metric's bound.)
func tiledPoints(seed int64, size float64) []point {
	n := scaled(128, size)
	var pts []point
	for _, name := range []string{"gemm", "syrk", "jacobi-2d", "fdtd-2d"} {
		build := kernelMaker(name)
		for _, tile := range []struct {
			label string
			bytes uint64
		}{{"fit", l3Bytes / 4}, {"thrash", 4 * l3Bytes}} {
			w := build(workload.TiledConfig{N: n, TileBytes: tile.bytes, Steps: 4})
			for _, sys := range systems {
				pts = append(pts, point{
					key: fmt.Sprintf("%s/%s/%s", name, tile.label, sys.name),
					cfg: uc1Config(sys.xmem), ws: []workload.Workload{w},
				})
			}
		}
	}
	return shuffle(rand.New(rand.NewSource(seed)), pts)
}

// placementSpecs are the Fig-7 workloads the placement workload runs: a
// fixed mix of streaming-dominated, random-dominated and mixed programs.
// (A seed-drawn subset of Suite27 would change the work mix from seed to
// seed: per-spec allocations per access range from 6 to 8.6.)
var placementSpecs = []string{"libq", "mcf", "milc", "soplex", "omnetpp", "leslie3d", "cactus", "srad"}

// placementPoints is the Fig-7 use case: each spec at scale 0.3 under the
// randomized frame allocator and under XMem bank placement, with 64 MiB of
// DRAM. The AAM's page directory grows to the highest frame index mapped,
// so a smaller frame pool keeps its regrowth the largest byte cost while
// cutting the memory traffic that made the timing noisy. The seed draws
// each spec's random frame layout and the order the points run in.
func placementPoints(seed int64, size float64) []point {
	rng := rand.New(rand.NewSource(seed))
	byName := map[string]workload.SynthSpec{}
	for _, s := range workload.Suite27() {
		byName[s.Name] = s
	}
	var pts []point
	for _, name := range placementSpecs {
		spec := byName[name].Scaled(0.3 * size)
		w := workload.Synthetic(spec)
		frames := rng.Int63()
		for _, alloc := range []sim.AllocPolicy{sim.AllocRandom, sim.AllocXMemPlacement} {
			cfg := sim.FastConfig(placementL3Bytes)
			cfg.Geometry.CapacityBytes = 64 << 20
			cfg.Alloc = alloc
			cfg.AllocSeed = frames
			pts = append(pts, point{
				key: fmt.Sprintf("%s/%s", name, alloc),
				cfg: cfg, ws: []workload.Workload{w},
			})
		}
	}
	return shuffle(rng, pts)
}

// antagonist is a streaming co-runner: 6×4×L3/64 line-by-line reads sweeping
// a read-only buffer of the given size.
func antagonist(idx int, bufBytes uint64, size float64) workload.Workload {
	return workload.Synthetic(workload.SynthSpec{
		Name: fmt.Sprintf("antagonist%d", idx),
		Structs: []workload.StructSpec{{
			Name: "buf", SizeBytes: bufBytes,
			Pattern: xm.PatternRegular, StrideBytes: mem.LineBytes,
			Intensity: 150, RW: xm.ReadOnly,
		}},
		Accesses: int(6 * 4 * l3Bytes / mem.LineBytes * size),
		WorkPer:  2,
	})
}

// corunPoints is the co-run extension: gemm and jacobi-2d at N=96 with an
// L3/4 tile, next to 1 and 3 streaming antagonists sharing the DRAM
// controller, on Baseline and XMem, on the serial multi-core scheduler.
// The seed draws each antagonist's buffer size from [3.5×L3, 4.5×L3], so
// every antagonist access still misses the L3, and the order the points
// run in. (At N=128 a pass took 3.3 s, so a 20-second run timed each point
// only six times.)
func corunPoints(seed int64, size float64) []point {
	rng := rand.New(rand.NewSource(seed))
	n := scaled(96, size)
	var pts []point
	for _, name := range []string{"gemm", "jacobi-2d"} {
		w := kernelMaker(name)(workload.TiledConfig{N: n, TileBytes: l3Bytes / 4, Steps: 4})
		for _, corunners := range []int{3, 1} {
			ws := []workload.Workload{w}
			for i := 0; i < corunners; i++ {
				buf := draw(rng, 7*l3Bytes/2, 9*l3Bytes/2) &^ (mem.PageBytes - 1)
				ws = append(ws, antagonist(i, buf, size))
			}
			for _, sys := range systems {
				pts = append(pts, point{
					key: fmt.Sprintf("%s/co=%d/%s", name, corunners, sys.name),
					cfg: uc1Config(sys.xmem), ws: ws, multi: true,
				})
			}
		}
	}
	return shuffle(rng, pts)
}

// joinPoints is the partitioned hash join on XMem with observation on:
// epoch metrics and 1-in-1000 span tracing. Four seed-drawn build sizes of
// 14k-18k rows, each probed by 4× as many rows, run with hash-table
// partitions of L3/2 (fits) and 4×L3 (a single partition whose table, at
// 24 B a row, is still 2.5-3.3×L3, so it thrashes). The seed also draws the
// order the points run in.
func joinPoints(seed int64, size float64) []point {
	rng := rand.New(rand.NewSource(seed))
	var pts []point
	for i := 0; i < 4; i++ {
		build := int(float64(draw(rng, 14000, 18000)) * size)
		for _, part := range []uint64{l3Bytes / 2, 4 * l3Bytes} {
			cfg := uc1Config(true)
			cfg.Metrics = true
			cfg.SpanSample = spanEvery
			w := workload.HashJoin(workload.HashJoinConfig{
				BuildRows: build, ProbeRows: 4 * build, PartitionBytes: part,
			})
			pts = append(pts, point{
				key: fmt.Sprintf("build%d/part=%dKB", i, part>>10),
				cfg: cfg, ws: []workload.Workload{w},
			})
		}
	}
	return shuffle(rng, pts)
}

// pointResult is the simulated output of one point: one Result per core and
// the machine-wide DRAM counters.
type pointResult struct {
	cores []sim.Result
	dram  dram.Stats
}

// simulate runs the point's workloads (possibly wrapped by the caller).
func (p point) simulate(ws []workload.Workload) (pointResult, error) {
	if !p.multi {
		r, err := sim.Run(p.cfg, ws[0])
		return pointResult{cores: []sim.Result{r}, dram: r.DRAM}, err
	}
	r, err := sim.RunMulti(sim.MultiConfig{Core: p.cfg}, ws)
	return pointResult{cores: r.Cores, dram: r.DRAM}, err
}
