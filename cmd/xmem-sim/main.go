// Command xmem-sim runs one or more workloads on a single machine
// configuration and dumps the full result: cycles, IPC, per-level cache
// statistics, DRAM row-buffer behaviour, and XMem (AMU/ALB/library)
// counters.
//
// Usage:
//
//	xmem-sim -workload gemm -n 256 -tile 131072 -l3 262144 -system xmem
//	xmem-sim -workload libq -scale 0.3 -alloc xmem -scheme ro:ra:ba:co:ch
//	xmem-sim -workload gemm,2mm,libq -parallel 4
//	xmem-sim -multi -workload gemm,libq,libq -system xmem
//
// Use-case-1 kernels are selected by kernel name (-tile applies); use-case-2
// synthetic workloads by suite name (-scale applies). A comma-separated
// -workload list runs as a deterministic sweep: -parallel N fans the
// workloads over N workers with byte-identical output to a sequential run,
// and -checkpoint/-resume skip already-completed workloads. A sweep names
// each workload once: an empty, repeated or unknown entry exits 2 before
// any point runs. The metrics and span-tracing flags (-metrics, -epoch,
// -atoms-top, -progress, -span-sample, -span-buf, -span-out) apply to
// single-workload runs only: a sweep, -multi or -infer-smoke run that sets
// one exits 2 and names it.
//
// With -multi the comma-separated workloads co-run on ONE multi-core
// machine — one core each, private hierarchies, shared memory controller —
// under the deterministic token-passing scheduler.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"xmem/internal/dram"
	"xmem/internal/experiments/runner"
	"xmem/internal/obs"
	"xmem/internal/obs/span"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

func main() {
	var (
		name       = flag.String("workload", "gemm", "kernel or synthetic workload name (list: -list)")
		list       = flag.Bool("list", false, "list available workloads and exit")
		n          = flag.Int("n", 256, "kernel matrix dimension")
		tile       = flag.Uint64("tile", 128<<10, "kernel tile size in bytes")
		steps      = flag.Int("steps", 6, "stencil time steps per tile")
		scale      = flag.Float64("scale", 0.3, "synthetic workload scale factor")
		l3         = flag.Uint64("l3", 256<<10, "L3 capacity in bytes")
		system     = flag.String("system", "baseline", "baseline, xmem, or xmem-pref")
		alloc      = flag.String("alloc", "sequential", "frame allocator: sequential, random, xmem")
		scheme     = flag.String("scheme", "ro:ra:ba:co:ch", "DRAM address mapping scheme")
		ideal      = flag.Bool("ideal-rbl", false, "perfect row-buffer locality")
		check      = flag.Bool("check", false, "audit XMem metadata invariants after every op (panics on structural divergence, reports lifecycle misuse)")
		inferSmoke = flag.Bool("infer-smoke", false, "run each workload twice (attributes stripped vs declared) and fail if declaring them made the memory system worse (L3 hit rate down AND cycles up)")
		bwCore     = flag.Float64("bw", 2.1e9, "per-core DRAM bandwidth in bytes/s (0 = full channel bandwidth)")

		metricsOut = flag.String("metrics", "", "write epoch-sampled metrics to this file (.csv, .trace.json/.chrome.json, or schema-v1 .json)")
		epoch      = flag.Uint64("epoch", 0, "metrics/progress epoch in core cycles (0 = 100k default)")
		atomsTop   = flag.Int("atoms-top", 20, "per-atom attribution rows to print (0 = none)")
		progress   = flag.Uint64("progress", 0, "print a heartbeat to stderr every N epochs (0 = off; works without -metrics)")

		spanSample = flag.Uint64("span-sample", 0, "trace 1 in N demand accesses as causal spans (0 = off)")
		spanBuf    = flag.Int("span-buf", 0, "retained-span ring capacity (0 = default)")
		spanOut    = flag.String("span-out", "", "write sampled spans to this file (.trace.json/.chrome.json = Chrome trace, else JSONL; requires -span-sample)")

		multi = flag.Bool("multi", false, "co-run the comma-separated -workload list on one multi-core machine (one core per workload)")

		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "workers for a comma-separated -workload sweep (1 = sequential)")
		timeout    = flag.Duration("timeout", 0, "per-workload timeout for sweeps (0 = none)")
		checkpoint = flag.String("checkpoint", "", "directory for the sweep's JSON checkpoint (empty = off)")
		resume     = flag.Bool("resume", false, "restore completed workloads from the checkpoint and run only the rest")
		verbose    = flag.Bool("v", false, "print sweep progress to stderr")
	)
	flag.Parse()

	if *list {
		fmt.Println("use case 1 kernels:  ", strings.Join(workload.KernelNames(), " "))
		fmt.Println("use case 2 workloads:", strings.Join(workload.SuiteNames(), " "))
		fmt.Println("mapping schemes:     ", strings.Join(dram.SchemeNames(), " "))
		return
	}

	baseConfig := func() sim.Config {
		cfg := sim.FastConfig(*l3)
		cfg.Scheme = *scheme
		cfg.Alloc = sim.AllocPolicy(*alloc)
		cfg.AllocSeed = 42
		cfg.IdealRBL = *ideal
		cfg.CheckInvariants = *check
		if *bwCore > 0 {
			cfg = cfg.WithUseCase1Bandwidth(*bwCore)
		}
		switch *system {
		case "baseline":
		case "xmem":
			cfg.XMemCache = true
		case "xmem-pref":
			cfg.XMemPrefetchOnly = true
		default:
			fmt.Fprintf(os.Stderr, "xmem-sim: unknown system %q\n", *system)
			os.Exit(2)
		}
		switch cfg.Alloc {
		case sim.AllocSequential, sim.AllocRandom, sim.AllocXMemPlacement:
		default:
			fmt.Fprintf(os.Stderr, "xmem-sim: unknown alloc policy %q (sequential, random or xmem)\n", *alloc)
			os.Exit(2)
		}
		return cfg
	}

	// Resolve every -workload entry before anything runs, so a bad one
	// exits 2. A sweep runs each workload once and rejects a repeat;
	// -multi runs one core per entry and -infer-smoke one check per entry.
	names := strings.Split(*name, ",")
	ws := make([]workload.Workload, len(names))
	for i, wname := range names {
		if !*multi && !*inferSmoke && slices.Contains(names[:i], wname) {
			fmt.Fprintf(os.Stderr, "xmem-sim: workload %q is listed twice (a sweep runs each once)\n", wname)
			os.Exit(2)
		}
		w, err := resolveWorkload(wname, *n, *tile, *steps, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-sim: %v\n", err)
			os.Exit(2)
		}
		ws[i] = w
	}

	if *inferSmoke || *multi || len(names) > 1 {
		if set := observationFlags(); len(set) > 0 {
			fmt.Fprintf(os.Stderr, "xmem-sim: %s: observation flags apply only to single-workload runs (not -multi, -infer-smoke or a -workload list)\n",
				strings.Join(set, ", "))
			os.Exit(2)
		}
	}

	if *inferSmoke {
		// Differential validation for inferred annotations (attrinfer):
		// the declared attributes must not mis-steer the XMem policies, so
		// force them on — stripped vs declared is only meaningful when the
		// machine actually consumes the attributes.
		failed := false
		for _, w := range ws {
			cfg := baseConfig()
			cfg.XMemCache = true
			cfg.Alloc = sim.AllocXMemPlacement
			r, err := sim.InferSmoke(cfg, w)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xmem-sim: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(r)
			failed = failed || !r.Pass()
		}
		if failed {
			fmt.Fprintln(os.Stderr, "xmem-sim: infer smoke FAILED: declaring attributes made the memory system worse")
			os.Exit(1)
		}
		return
	}

	if *multi {
		res, err := sim.RunMulti(sim.MultiConfig{Core: baseConfig()}, ws)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-sim: %v\n", err)
			os.Exit(1)
		}
		printMultiResult(os.Stdout, res)
		return
	}

	if len(names) > 1 {
		if *resume && *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "xmem-sim: -resume requires -checkpoint")
			os.Exit(2)
		}
		var sweepProgress io.Writer
		if *verbose {
			sweepProgress = os.Stderr
		}
		err := runWorkloadSweep(names, ws, baseConfig(), runner.Options{
			Parallel:      *parallel,
			Timeout:       *timeout,
			CheckpointDir: *checkpoint,
			Resume:        *resume,
			Progress:      sweepProgress,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-sim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := baseConfig()
	cfg.EpochCycles = *epoch
	cfg.Metrics = *metricsOut != ""
	if *spanOut != "" && *spanSample == 0 {
		fmt.Fprintln(os.Stderr, "xmem-sim: -span-out requires -span-sample")
		os.Exit(2)
	}
	cfg.SpanSample = *spanSample
	cfg.SpanBuffer = *spanBuf
	if *progress > 0 {
		every := *progress
		cfg.OnEpoch = func(p sim.EpochProgress) {
			if p.Epoch%every == 0 {
				fmt.Fprintf(os.Stderr, "epoch %6d  cycle %12d  instructions %12d  IPC %.3f\n",
					p.Epoch, p.Cycle, p.Instructions, p.IPC)
			}
		}
	}

	res, err := sim.Run(cfg, ws[0])
	if err == nil && *metricsOut != "" {
		err = res.Metrics.WriteFile(*metricsOut)
	}
	if err == nil && *spanOut != "" {
		err = res.Spans.WriteFile(*spanOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmem-sim: %v\n", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if res.Metrics != nil {
		printPerAtom(res.Metrics, *atomsTop)
	}
	if d := res.Spans; d != nil {
		fmt.Printf("\nspans           %d retained (1-in-%d sampling), %d sampled, %d dropped\n",
			len(d.Spans), d.SampleEvery, d.Sampled, d.Dropped)
	}
	// Validate schema-v1 JSON output right after writing it; the CSV and
	// Chrome-trace forms have no self-describing schema to check.
	if p := *metricsOut; p != "" && !strings.HasSuffix(p, ".csv") &&
		!strings.HasSuffix(p, ".trace.json") && !strings.HasSuffix(p, ".chrome.json") {
		data, err := os.ReadFile(p)
		if err == nil {
			_, err = obs.ValidateJSON(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-sim: metrics output failed validation: %v\n", err)
			os.Exit(1)
		}
	}
	// Same self-check for the JSONL span stream.
	if p := *spanOut; p != "" && !strings.HasSuffix(p, ".trace.json") && !strings.HasSuffix(p, ".chrome.json") {
		data, err := os.ReadFile(p)
		if err == nil {
			_, err = span.ValidateJSONL(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-sim: span output failed validation: %v\n", err)
			os.Exit(1)
		}
	}
}

// observationFlags returns, as "-name" in lexical order, the observation
// flags the command line set. Only a single-workload run honours them.
func observationFlags() []string {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "metrics", "epoch", "atoms-top", "progress", "span-sample", "span-buf", "span-out":
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// runWorkloadSweep runs each workload as one deterministic sweep point keyed
// by its name in the list, and prints the rendered reports in list order,
// separated by a rule. The point result is the rendered text itself, so
// checkpointed points replay byte-identically on -resume.
func runWorkloadSweep(names []string, ws []workload.Workload, cfg sim.Config, opt runner.Options) error {
	var pts []runner.Point[string]
	for i, name := range names {
		w := ws[i]
		pts = append(pts, runner.Point[string]{
			Key: name,
			Run: func(*runner.Ctx) (string, error) {
				res, err := sim.Run(cfg, w)
				if err != nil {
					return "", err
				}
				var b bytes.Buffer
				printResult(&b, res)
				return b.String(), nil
			},
		})
	}
	outs, err := runner.Run("xmem-sim", pts, opt)
	if err != nil {
		return err
	}
	for i, o := range outs {
		if i > 0 {
			fmt.Println(strings.Repeat("-", 60))
		}
		if o.Err != "" {
			fmt.Printf("workload        %s\nFAILED          %s\n", o.Key, o.Err)
			continue
		}
		fmt.Print(o.Result)
	}
	return runner.FailErr(outs)
}

func resolveWorkload(name string, n int, tile uint64, steps int, scale float64) (workload.Workload, error) {
	w, err := workload.ByName(name, workload.TiledConfig{N: n, TileBytes: tile, Steps: steps}, scale)
	if err != nil {
		return w, fmt.Errorf("%w (try -list)", err)
	}
	return w, nil
}

func printResult(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "workload        %s\n", r.Workload)
	fmt.Fprintf(w, "cycles          %d\n", r.Cycles)
	fmt.Fprintf(w, "instructions    %d\n", r.Instructions)
	fmt.Fprintf(w, "IPC             %.3f\n", r.IPC)
	fmt.Fprintf(w, "L3 MPKI         %.2f\n", r.L3MPKI)
	fmt.Fprintf(w, "\ncaches          hits      misses    missrate  writebacks\n")
	fmt.Fprintf(w, "  L1D   %12d %10d   %6.2f%%  %10d\n", r.L1D.Hits, r.L1D.Misses, 100*r.L1D.DemandMissRate(), r.L1D.Writebacks)
	fmt.Fprintf(w, "  L2    %12d %10d   %6.2f%%  %10d\n", r.L2.Hits, r.L2.Misses, 100*r.L2.DemandMissRate(), r.L2.Writebacks)
	fmt.Fprintf(w, "  L3    %12d %10d   %6.2f%%  %10d\n", r.L3.Hits, r.L3.Misses, 100*r.L3.DemandMissRate(), r.L3.Writebacks)
	fmt.Fprintf(w, "  L3 prefetch: fills %d, delayed hits %d, pin inserts %d\n",
		r.L3.PrefetchFills, r.L3.DelayedHits, r.L3.PinInserts)
	fmt.Fprintf(w, "\nDRAM            reads %d  writes %d  row-hit %.1f%%\n",
		r.DRAM.Reads, r.DRAM.Writes, 100*r.DRAM.RowHitRate())
	fmt.Fprintf(w, "  read latency  %.0f cycles avg (demand)\n", r.DRAM.AvgDemandReadLatency())
	fmt.Fprintf(w, "  write latency %.0f cycles avg\n", r.DRAM.AvgWriteLatency())
	fmt.Fprintf(w, "\nXMem            ops %d (map %d, activate %d)  lookups %d  ALB hit %.2f%%\n",
		r.Lib.RuntimeOps, r.AMU.MapOps+r.AMU.UnmapOps,
		r.AMU.ActivateOps+r.AMU.DeactivateOps, r.AMU.Lookups, 100*r.ALBHitRate)
	fmt.Fprintf(w, "  instruction overhead %.5f%%\n",
		100*float64(r.Lib.Instructions)/float64(max(r.Instructions, 1)))
	if len(r.InvariantWarnings) > 0 {
		fmt.Fprintf(w, "\ninvariant audit: %d lifecycle violation(s)\n", len(r.InvariantWarnings))
		for _, warn := range r.InvariantWarnings {
			fmt.Fprintf(w, "  %s\n", warn)
		}
	}
}

// printMultiResult renders a co-run: one row per core, then the shared
// controller's machine-wide counters.
func printMultiResult(w io.Writer, r sim.MultiResult) {
	fmt.Fprintf(w, "multicore       %d cores\n", len(r.Cores))
	fmt.Fprintf(w, "cycles          %d (slowest core)\n", r.Cycles)
	fmt.Fprintf(w, "\ncore  %-14s %12s %8s %10s %10s\n",
		"workload", "cycles", "IPC", "L3 miss%", "L3 MPKI")
	for i, c := range r.Cores {
		fmt.Fprintf(w, "  %2d  %-14s %12d %8.3f %9.2f%% %10.2f\n",
			i, c.Workload, c.Cycles, c.IPC, 100*c.L3.DemandMissRate(), c.L3MPKI)
	}
	fmt.Fprintf(w, "\nshared DRAM     reads %d  writes %d  row-hit %.1f%%\n",
		r.DRAM.Reads, r.DRAM.Writes, 100*r.DRAM.RowHitRate())
	fmt.Fprintf(w, "  read latency  %.0f cycles avg (demand)\n", r.DRAM.AvgDemandReadLatency())
	if r.RemoteFraction > 0 {
		fmt.Fprintf(w, "  NUMA remote   %.1f%% of accesses\n", 100*r.RemoteFraction)
	}
}

// printPerAtom prints the attribution table: which atoms took the L3 demand
// misses, how their DRAM commands behaved, and what prefetching did for
// them. The coverage line reports the fraction of misses attributed to a
// real atom (the "(unattributed)" row is everything else).
func printPerAtom(r *obs.Report, top int) {
	if top == 0 || len(r.PerAtom) == 0 {
		return
	}
	fmt.Printf("\nper-atom attribution (demand-miss order, epoch %d cycles)\n", r.EpochCycles)
	fmt.Printf("  %-18s %10s %10s %10s %8s %9s %9s\n",
		"atom", "dmisses", "rowhits", "rowmiss", "pinevic", "pf-issue", "pf-useful")
	var total, attributed uint64
	for i, a := range r.PerAtom {
		total += a.DemandMisses
		if a.Name != obs.UnattributedName {
			attributed += a.DemandMisses
		}
		if i < top {
			name := a.Name
			if name == "" {
				name = fmt.Sprintf("atom-%d", a.ID)
			}
			fmt.Printf("  %-18s %10d %10d %10d %8d %9d %9d\n",
				name, a.DemandMisses, a.RowHits, a.RowMisses,
				a.PinEvictions, a.PrefetchIssued, a.PrefetchUseful)
		}
	}
	if n := len(r.PerAtom); n > top {
		fmt.Printf("  ... %d more (raise -atoms-top)\n", n-top)
	}
	if total > 0 {
		fmt.Printf("  attribution coverage: %.1f%% of %d L3 demand misses\n",
			100*float64(attributed)/float64(total), total)
	}
}
