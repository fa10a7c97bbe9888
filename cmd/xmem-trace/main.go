// Command xmem-trace records, inspects, profiles, and replays memory access
// traces, and explains causal span streams.
//
//	xmem-trace record -workload gemm -n 64 -tile 8192 -o gemm.trc
//	xmem-trace info -i gemm.trc
//	xmem-trace profile -i gemm.trc          # infer atom attributes (§3.5.1 profiling channel)
//	xmem-trace replay -i gemm.trc -l3 262144
//	xmem-trace explain -i gemm.spans.jsonl  # why were the sampled accesses slow?
//
// The profile subcommand is the paper's third expression channel: for code
// that carries no annotations, a profiling run derives the attributes and
// emits the same atom segment the programmer or compiler would have. The
// replay subcommand declares no atoms, so it runs the baseline machine;
// examples/profiling replays a trace with its profiled atoms
// (trace.ReplayWithAtoms). The explain subcommand consumes the JSONL span
// stream written by xmem-sim -span-sample/-span-out and prints, per atom,
// the slowest causal paths with their attribute-tied reason codes.
package main

import (
	"flag"
	"fmt"
	"os"

	"xmem/internal/obs/span"
	"xmem/internal/sim"
	"xmem/internal/trace"
	"xmem/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xmem-trace {record|info|profile|replay|explain} [flags]")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xmem-trace: %v\n", err)
	os.Exit(1)
}

// usageError reports a bad argument, such as an unknown workload, and exits
// 2, as the flag package does.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "xmem-trace: %v\n", err)
	os.Exit(2)
}

// requireFlag exits 2, naming the flag, when the subcommand's flag name was
// left empty.
func requireFlag(fs *flag.FlagSet, name string) {
	if fs.Lookup(name).Value.String() == "" {
		usageError(fmt.Errorf("%s: -%s is required", fs.Name(), name))
	}
}

func loadTrace(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	t, err := trace.Read(f)
	if err != nil {
		fail(err)
	}
	return t
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "gemm", "workload name")
	n := fs.Int("n", 64, "kernel dimension")
	tile := fs.Uint64("tile", 8192, "kernel tile bytes")
	steps := fs.Int("steps", 4, "stencil steps")
	scale := fs.Float64("scale", 0.05, "synthetic workload scale")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	requireFlag(fs, "o")
	switch {
	case *n <= 0:
		usageError(fmt.Errorf("record: -n %d: the kernel dimension must be positive", *n))
	case !(*scale > 0):
		usageError(fmt.Errorf("record: -scale %g: the workload scale must be positive", *scale))
	}
	w, err := workload.ByName(*name, workload.TiledConfig{N: *n, TileBytes: *tile, Steps: *steps}, *scale)
	if err != nil {
		usageError(err)
	}
	t := trace.Record(w)
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		fail(err)
	}
	fmt.Printf("recorded %d events (%d accesses, %d KB footprint) to %s\n",
		len(t.Events), t.Accesses(), t.FootprintBytes()>>10, *out)
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	fs.Parse(args)
	requireFlag(fs, "i")
	t := loadTrace(*in)
	fmt.Printf("events:    %d\n", len(t.Events))
	fmt.Printf("accesses:  %d\n", t.Accesses())
	fmt.Printf("footprint: %d KB\n", t.FootprintBytes()>>10)
	for _, e := range t.Events {
		if e.Kind == trace.EvMalloc {
			fmt.Printf("region %-16s %8d bytes (atom %d)\n", e.Name, e.Addr, e.Site)
		}
	}
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	fs.Parse(args)
	requireFlag(fs, "i")
	t := loadTrace(*in)
	p := trace.Analyze(t)
	fmt.Printf("%-20s %10s %8s %10s %8s %6s   %s\n",
		"region", "accesses", "stores", "footprint", "stride", "reg%", "inferred attributes")
	total := p.TotalAccesses()
	for _, r := range p.Regions {
		attrs := r.InferAttributes(total)
		fmt.Printf("%-20s %10d %8d %9dK %8d %5.0f%%   %v\n",
			r.Name, r.Accesses, r.Stores, r.DistinctLines*64/1024,
			r.DominantStride, 100*r.Regularity, attrs)
	}
	fmt.Printf("\nper-site strides:\n")
	for _, s := range p.Sites {
		fmt.Printf("  site %-4d %10d accesses, stride %6d (%.0f%% regular)\n",
			s.Site, s.Accesses, s.DominantStride, 100*s.Regularity)
	}
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	in := fs.String("i", "", "input span JSONL file (from xmem-sim -span-out)")
	top := fs.Int("top", 5, "causal paths to print per atom (0 = all)")
	fs.Parse(args)
	requireFlag(fs, "i")
	data, err := os.ReadFile(*in)
	if err != nil {
		fail(err)
	}
	d, err := span.ValidateJSONL(data)
	if err != nil {
		fail(err)
	}
	if err := span.WriteExplain(os.Stdout, d, *top); err != nil {
		fail(err)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	l3 := fs.Uint64("l3", 256<<10, "L3 bytes")
	fs.Parse(args)
	requireFlag(fs, "i")
	cfg := sim.FastConfig(*l3)
	if err := cfg.L3.Validate(); err != nil {
		usageError(fmt.Errorf("replay: -l3 %d: %w", *l3, err))
	}
	t := loadTrace(*in)
	res, err := sim.Run(cfg, trace.Replay("replay:"+*in, t))
	if err != nil {
		fail(err)
	}
	fmt.Printf("cycles=%d instructions=%d IPC=%.3f L3MPKI=%.2f rowhit=%.1f%%\n",
		res.Cycles, res.Instructions, res.IPC, res.L3MPKI, 100*res.DRAM.RowHitRate())
}
