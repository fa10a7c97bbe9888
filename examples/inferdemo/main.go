// Inferdemo: static inference closing the semantic gap, end to end.
//
// This example is the second expression channel of §3.5.1 — static
// analysis — made concrete. Its workload is deliberately under-annotated:
// the programmer expressed relative hotness and reuse (the judgement calls
// only a human can make) but left the mechanical attributes — access
// pattern, stride, read/write mix — undeclared, and one allocation has no
// atom at all. Those are exactly the attributes `xmem-vet -run attrinfer`
// proves from the loop nests, and `xmem-vet -fix` writes back into this
// file. The committed version of this file IS the fixed output; the
// pre-fix original is preserved at
// internal/analysis/testdata/inferdemo_prefix/main.go.txt, and
// TestInferDemoProvenance (internal/analysis) re-applies the fixes to it
// and compares the result with this file, proving the committed
// annotations are machine-derived.
//
// The program then validates the inference against the simulator the same
// way CI does: it runs itself twice on an XMem machine — once with every
// declared attribute stripped (the unannotated binary) and once as
// declared — and compares L3 hit rate, row-buffer locality, and cycles.
// With -check it exits nonzero when declaring the attributes did not help,
// which would mean the inference mis-steered a policy.
//
// Run with: go run ./examples/inferdemo [-check]
package main

import (
	"flag"
	"fmt"
	"os"

	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

const (
	tableElems   = 4 << 10  // 32 KB hash table: hot, heavily reused
	streamElems  = 64 << 10 // 512 KB input stream: scanned once per pass
	logElems     = 16 << 10 // 128 KB append log: write-only
	scratchElems = 8 << 10  // 64 KB scratch: not even an atom (pre-fix)
	passes       = 8
)

// demo builds the under-annotated workload. The Intensity and Reuse values
// are the human's contribution — relative, cross-atom rankings attrinfer
// never invents. Everything else the analyzer proves and fills in.
func demo() workload.Workload {
	return workload.Workload{
		Name: "inferdemo",
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("main.table", core.Attributes{Pattern: core.PatternIrregular, RW: core.ReadOnly, Intensity: 220, Reuse: 200})
			lib.CreateAtom("main.stream", core.Attributes{Pattern: core.PatternRegular, StrideBytes: 8, RW: core.ReadOnly, Intensity: 60})
			lib.CreateAtom("main.log", core.Attributes{Pattern: core.PatternRegular, StrideBytes: 8, RW: core.WriteOnly, Intensity: 20})
		},
		Run: func(p workload.Program) {
			lib := p.Lib()
			table := p.Malloc("table", tableElems*8, lib.CreateAtom("main.table", core.Attributes{Pattern: core.PatternIrregular, RW: core.ReadOnly, Intensity: 220, Reuse: 200}))
			stream := p.Malloc("stream", streamElems*8, lib.CreateAtom("main.stream", core.Attributes{Pattern: core.PatternRegular, StrideBytes: 8, RW: core.ReadOnly, Intensity: 60}))
			log := p.Malloc("log", logElems*8, lib.CreateAtom("main.log", core.Attributes{Pattern: core.PatternRegular, StrideBytes: 8, RW: core.WriteOnly, Intensity: 20}))
			scratch := p.Malloc("scratch", scratchElems*8, p.Lib().CreateAtom("main.scratch", core.Attributes{Pattern: core.PatternRegular, StrideBytes: 8, RW: core.WriteOnly}))
			for pass := 0; pass < passes; pass++ {
				for i := 0; i < streamElems; i++ {
					p.Load(0, stream+mem.Addr(i*8))
					p.Load(1, table+mem.Addr(i*31%tableElems*8))
					p.Work(1)
				}
				for i := 0; i < logElems; i++ {
					p.Store(2, log+mem.Addr(i*8))
				}
				for i := 0; i < scratchElems; i++ {
					p.Store(3, scratch+mem.Addr(i*8))
				}
			}
		},
	}
}

func main() {
	check := flag.Bool("check", false, "exit nonzero unless declaring the attributes helped the memory system")
	flag.Parse()

	fmt.Println("inferdemo: statically inferred annotations vs the unannotated binary")
	fmt.Println()
	fmt.Println("The committed annotations in this file are `xmem-vet -fix` output:")
	fmt.Println("pattern, stride, and read/write mix were proven from the loop nests;")
	fmt.Println("only Intensity and Reuse were written by hand.")
	fmt.Println()

	cfg := sim.FastConfig(256 << 10)
	cfg.Alloc = sim.AllocXMemPlacement
	cfg.AllocSeed = 42
	cfg.XMemCache = true
	r, err := sim.InferSmoke(cfg, demo())
	if err != nil {
		fmt.Fprintf(os.Stderr, "inferdemo: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(r)
	fmt.Println()
	if r.Pass() {
		fmt.Println("expressing the inferred semantics helped: the annotations are safe to ship")
	} else {
		fmt.Println("declaring the attributes made the memory system WORSE: inference mis-steered a policy")
	}
	if *check && !r.Pass() {
		os.Exit(1)
	}
}
