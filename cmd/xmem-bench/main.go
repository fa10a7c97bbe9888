// Command xmem-bench regenerates the paper's evaluation: one sub-experiment
// per table/figure (Figures 4-8, the §4.2 ALB coverage measurement, and the
// §4.4 overhead analysis), plus four extensions: the hybrid DRAM+NVM use
// case, NUMA placement, a design-choice ablation and multi-core co-runs.
//
// Usage:
//
//	xmem-bench [-preset mini|fast|paper] [-exp names]
//	           [-kernels gemm,2mm] [-workloads libq,mcf] [-v] [-json file]
//	           [-parallel N] [-timeout 30s] [-checkpoint dir] [-resume]
//
// -exp takes a comma-separated list of experiment names; the table in
// internal/experiments defines them, and xmem-bench -h lists them. The
// name all selects every experiment the table marks as part of it and
// combines with other names (-exp all,numa). Each experiment prints once,
// in table order, and experiments that show the same result share its
// sweep: fig8 prints Figure 8 from fig7's runs. -kernels names Figure 4
// kernels and -workloads members of the 27-workload suite. An unknown or
// empty -exp name, and an unknown, empty or repeated -kernels or
// -workloads entry, exit 2 before any sweep runs.
//
// Every experiment is a deterministic sweep: -parallel N fans the sweep's
// points over N workers and produces byte-identical report output to a
// sequential run. -checkpoint dir writes a JSON checkpoint per sweep after
// every completed point; -resume restores completed points from it and
// re-runs only failed and missing ones. -v prints each point's wall time
// as it completes and a per-sweep summary.
//
// The fast preset (default) runs the full kernel and workload lists at
// 8×-reduced scale; paper approaches Table 3 scale (hours). See
// EXPERIMENTS.md for recorded outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"xmem/internal/experiments"
	"xmem/internal/experiments/runner"
)

func main() {
	var (
		presetName = flag.String("preset", "fast", "scale preset: mini, fast, or paper")
		exp        = flag.String("exp", "all", "experiments to run: "+experiments.Usage())
		kernels    = flag.String("kernels", "", "comma-separated kernel filter for use case 1")
		workloads  = flag.String("workloads", "", "comma-separated workload filter for use case 2")
		verbose    = flag.Bool("v", false, "print per-run progress to stderr")
		jsonPath   = flag.String("json", "", "also write all computed results as JSON to this file")

		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep workers (1 = sequential; results are identical either way)")
		timeout    = flag.Duration("timeout", 0, "per-point timeout (0 = none); timed-out points are recorded as failed")
		checkpoint = flag.String("checkpoint", "", "directory for per-sweep JSON checkpoints (empty = off)")
		resume     = flag.Bool("resume", false, "restore completed points from the checkpoint directory and run only the rest")
	)
	flag.Parse()

	preset, ok := experiments.PresetByName(*presetName)
	if !ok {
		fmt.Fprintf(os.Stderr, "xmem-bench: unknown preset %q\n", *presetName)
		os.Exit(2)
	}
	sel, err := experiments.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xmem-bench: %v\n", err)
		os.Exit(2)
	}
	if err := preset.Filter(*kernels, *workloads); err != nil {
		fmt.Fprintf(os.Stderr, "xmem-bench: %v\n", err)
		os.Exit(2)
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	out := os.Stdout

	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "xmem-bench: -resume requires -checkpoint")
		os.Exit(2)
	}
	opt := runner.Options{
		Parallel:      *parallel,
		Timeout:       *timeout,
		CheckpointDir: *checkpoint,
		Resume:        *resume,
		Progress:      progress,
	}

	// results holds each shown result by JSON key; entries that show the
	// same result (fig7, fig8) share one sweep.
	results := map[string]experiments.Report{}
	for _, e := range sel {
		res, ok := results[e.Result]
		if !ok {
			res, err = e.Run(preset, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xmem-bench: %v\n", err)
				os.Exit(1)
			}
			results[e.Result] = res
		}
		e.Print(res, out)
		fmt.Fprintln(out)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xmem-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
