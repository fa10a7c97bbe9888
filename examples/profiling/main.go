// Profiling: the third expression channel of §3.5.1, end to end.
//
// The paper lists three ways atoms enter a program: programmer annotation,
// static compiler analysis, and dynamic profiling. This example runs the
// profiling path on an UNANNOTATED program:
//
//  1. record the program's memory trace;
//  2. analyze it — infer each data structure's access pattern, read/write
//     behaviour, intensity, and reuse, and emit profiler-derived atoms;
//  3. replay the identical access stream with the inferred atoms attached,
//     on a machine using XMem-based DRAM placement (§6);
//  4. re-run the profile-guided machine with the observability layer on
//     and read the per-atom attribution — the same epoch time series
//     `xmem-sim -metrics run.json -epoch 100000 -atoms-top 20` writes.
//  5. turn on causal span tracing for the same run and explain per atom
//     *why* accesses were slow — the same report `xmem-sim -span-sample
//     100 -span-out run.jsonl` + `xmem-trace explain -i run.jsonl`
//     renders from a recorded stream.
//
// The program never expressed anything itself; the inferred atom segment
// alone recovers most of the placement benefit, and the obs layer shows
// per structure where the remaining misses land.
//
// Run with: go run ./examples/profiling
package main

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/obs"
	"xmem/internal/obs/span"
	"xmem/internal/sim"
	"xmem/internal/trace"
	"xmem/internal/workload"
)

func main() {
	// An "unannotated" program: three structures, no atom calls at all.
	unannotated := workload.Workload{
		Name: "legacy-app",
		Run: func(p workload.Program) {
			// Deliberately untagged (xmem:noinfer): this example exercises
			// the *dynamic* profiling channel, not static inference.
			hot := p.Malloc("hotArray", 4<<20, core.InvalidAtom)  //xmem:noinfer
			idx := p.Malloc("indexHeap", 2<<20, core.InvalidAtom) //xmem:noinfer
			cold := p.Malloc("coldLog", 1<<20, core.InvalidAtom)  //xmem:noinfer
			state := uint64(7)
			for i := 0; i < 120000; i++ {
				p.Load(1, hot+mem.Addr(i%(4<<14))*64) // sequential sweep
				if i%3 == 0 {
					state = state*6364136223846793005 + 1442695040888963407
					p.Load(2, idx+mem.Addr((state>>16)%(2<<14))*64)
				}
				if i%10 == 0 {
					p.Store(3, cold+mem.Addr(i%(1<<14))*64)
				}
				p.Work(5)
			}
		},
	}

	fmt.Println("1. recording the unannotated program...")
	tr := trace.Record(unannotated)
	fmt.Printf("   %d accesses, %d KB footprint\n\n", tr.Accesses(), tr.FootprintBytes()>>10)

	fmt.Println("2. profiling the trace (inferred atom attributes):")
	profile := trace.Analyze(tr)
	atoms := profile.InferAtoms()
	for _, a := range atoms {
		fmt.Printf("   %s\n", a)
	}
	fmt.Println()

	fmt.Println("3. replaying on baseline vs profile-guided XMem placement:")
	run := func(label string, alloc sim.AllocPolicy, w workload.Workload) uint64 {
		cfg := sim.FastConfig(256 << 10)
		cfg.Alloc = alloc
		cfg.AllocSeed = 42
		r := sim.MustRun(cfg, w)
		fmt.Printf("   %-24s cycles=%10d row-hit=%5.1f%% read-lat=%4.0f\n",
			label, r.Cycles, 100*r.DRAM.RowHitRate(), r.DRAM.AvgDemandReadLatency())
		return r.Cycles
	}
	base := run("baseline (random VA->PA)", sim.AllocRandom, trace.Replay("replay", tr))
	prof := run("profile-guided XMem", sim.AllocXMemPlacement, trace.ReplayWithAtoms("replay+atoms", tr, atoms))
	fmt.Printf("\nprofile-guided speedup: %.2fx — with zero source changes\n",
		float64(base)/float64(prof))

	fmt.Println("\n4. same run with the observability layer on (per-atom view):")
	cfg := sim.FastConfig(256 << 10)
	cfg.Alloc = sim.AllocXMemPlacement
	cfg.AllocSeed = 42
	cfg.Metrics = true
	cfg.EpochCycles = 100_000
	// r.Metrics.WriteFile("profiling.trace.json") would also write a
	// Perfetto-openable timeline; here we read the report in-process instead.
	r := sim.MustRun(cfg, trace.ReplayWithAtoms("replay+atoms", tr, atoms))
	fmt.Printf("   %d epochs sampled, %d counters (layer.component.metric)\n",
		len(r.Metrics.Samples), len(r.Metrics.Counters))
	fmt.Printf("   %-20s %12s %10s %10s\n", "atom", "demand-miss", "row-hits", "row-miss")
	for _, a := range r.Metrics.PerAtom {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("atom-%d", a.ID)
		}
		fmt.Printf("   %-20s %12d %10d %10d\n", name, a.DemandMisses, a.RowHits, a.RowMisses)
	}
	cov := obs.AttributionCoverage(r.Metrics.PerAtom, func(c obs.AtomCounters) uint64 {
		return c.DemandMisses
	})
	fmt.Printf("   attribution coverage: %.0f%% of L3 demand misses\n", 100*cov)

	fmt.Println("\n5. causal spans: why were the slow accesses slow?")
	cfg.Metrics = false
	cfg.SpanSample = 100 // trace one in every 100 demand accesses
	r = sim.MustRun(cfg, trace.ReplayWithAtoms("replay+atoms", tr, atoms))
	fmt.Printf("   %d spans retained (1-in-%d sampling, %d dropped)\n",
		len(r.Spans.Spans), r.Spans.SampleEvery, r.Spans.Dropped)
	// The same grouping `xmem-trace explain` prints: per atom, per path
	// (layer:outcome[reason] chains), costliest first.
	for _, a := range span.Explain(r.Spans.Spans)[:2] {
		name := a.Name
		if a.Atom == core.InvalidAtom {
			name = obs.UnattributedName
		}
		fmt.Printf("   %s — %d spans, p50 %d p99 %d cycles\n", name, a.Count, a.P50, a.P99)
		for _, p := range a.Paths[:min(2, len(a.Paths))] {
			fmt.Printf("     %5d× %s\n", p.Count, p.Path)
		}
	}
}
