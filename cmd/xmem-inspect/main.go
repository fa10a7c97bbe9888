// Command xmem-inspect shows what a program expresses through XMem without
// running a simulation: the atom segment a workload's CREATE sites would be
// summarized into (§3.5.2), its decoded attributes, and the per-component
// translated views (cache / prefetcher / memory-controller PATs, §4.2).
//
// Usage:
//
//	xmem-inspect -workload gemm            # dump gemm's atoms + PATs
//	xmem-inspect -workload libq -segment   # hex-dump the encoded segment
//	xmem-inspect -placement libq -banks 8  # show the §6.2 bank assignment
//	xmem-inspect -validate-metrics m.json  # check a metrics file's schema
//	xmem-inspect -validate-spans s.jsonl   # check a span stream (xmem-sim -span-out)
//	xmem-inspect -vet results_vet.json     # summarize an xmem-vet -json report
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"

	"xmem/internal/analysis"
	"xmem/internal/compress"
	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/obs"
	"xmem/internal/obs/span"
	"xmem/internal/workload"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload whose atoms to inspect")
		segment   = flag.Bool("segment", false, "hex-dump the encoded atom segment")
		placement = flag.String("placement", "", "workload whose §6.2 DRAM placement to show")
		banks     = flag.Int("banks", 8, "bank groups for -placement")
		validate  = flag.String("validate-metrics", "", "validate a schema-v1 metrics JSON file (from xmem-sim -metrics)")
		spans     = flag.String("validate-spans", "", "validate a causal span JSONL stream (from xmem-sim -span-out)")
		vet       = flag.String("vet", "", "validate and summarize an xmem-vet/v2 JSON report (from xmem-vet -json)")
	)
	flag.Parse()

	switch {
	case *vet != "":
		summarizeVet(*vet)
	case *name != "":
		atoms, err := declaredAtoms(*name)
		if err != nil {
			usageError(err)
		}
		dumpAtoms(atoms, *segment)
	case *placement != "":
		if *banks <= 0 || *banks > dram.MaxBanksPerChannel {
			usageError(fmt.Errorf("-banks %d: the placement needs 1 to %d bank groups (a channel's banks)", *banks, dram.MaxBanksPerChannel))
		}
		atoms, err := declaredAtoms(*placement)
		if err != nil {
			usageError(err)
		}
		dumpPlacement(atoms, *banks)
	case *validate != "":
		validateMetrics(*validate)
	case *spans != "":
		validateSpans(*spans)
	default:
		fmt.Println("available workloads:")
		for _, k := range workload.KernelNames() {
			fmt.Printf("  %s (use case 1)\n", k)
		}
		for _, k := range workload.ExtraKernels() {
			fmt.Printf("  %s (extended kernel)\n", k.Name)
		}
		for _, s := range workload.SuiteNames() {
			fmt.Printf("  %s (use case 2)\n", s)
		}
	}
}

// validateMetrics checks a schema-v1 metrics file and prints a one-line
// summary of what it holds.
func validateMetrics(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	r, err := obs.ValidateJSON(data)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("%s: valid %s (workload %s, %d counters, %d samples, %d atoms, epoch %d cycles)\n",
		path, r.Schema, r.Workload, len(r.Counters), len(r.Samples), len(r.PerAtom), r.EpochCycles)
}

// validateSpans checks a causal-span JSONL stream and prints a one-line
// summary of what it holds.
func validateSpans(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	d, err := span.ValidateJSONL(data)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("%s: valid %s (workload %s, 1-in-%d sampling, %d spans, %d dropped)\n",
		path, d.Schema, d.Workload, d.SampleEvery, len(d.Spans), d.Dropped)
}

// summarizeVet validates an xmem-vet/v2 report and prints the
// per-analyzer finding counts — zero-finding analyzers included, so the
// summary proves which checks ran. Findings that carry suggested fixes are
// marked, with the total edit count, so CI logs show how much of the
// report `xmem-vet -fix` would resolve.
func summarizeVet(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	r, err := analysis.ReadVetReport(data)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	fixable, edits := 0, 0
	for _, f := range r.Findings {
		if len(f.SuggestedFixes) > 0 {
			fixable++
			for _, fix := range f.SuggestedFixes {
				edits += len(fix.Edits)
			}
		}
	}
	fmt.Printf("%s: valid %s (module %s, %d analyzers, %d findings, %d fixable with %d edits)\n",
		path, r.Schema, r.Module, len(r.Analyzers), len(r.Findings), fixable, edits)
	counts := make(map[string]int, len(r.Analyzers))
	for _, f := range r.Findings {
		counts[f.Analyzer]++
	}
	for _, a := range r.Analyzers {
		fmt.Printf("  %-14s %3d finding(s)  %s\n", a.Name, counts[a.Name], a.Doc)
	}
	for _, f := range r.Findings {
		mark := ""
		if len(f.SuggestedFixes) > 0 {
			mark = " [fix available]"
		}
		fmt.Printf("  %s:%d:%d: %s: %s%s\n", f.File, f.Line, f.Col, f.Analyzer, f.Msg, mark)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xmem-inspect: %v\n", err)
	os.Exit(1)
}

// usageError reports a bad argument, such as an unknown workload, and exits
// 2, as the flag package does.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "xmem-inspect: %v\n", err)
	os.Exit(2)
}

func declaredAtoms(name string) ([]xm.Atom, error) {
	w, err := workload.ByName(name, workload.TiledConfig{N: 64, TileBytes: 8 << 10}, 1)
	if err != nil {
		return nil, err
	}
	lib := xm.NewLib(nil)
	w.Declare(lib)
	return lib.Atoms(), nil
}

func dumpAtoms(atoms []xm.Atom, hexdump bool) {
	fmt.Printf("atom segment: %d atoms, version %d, %d bytes encoded\n\n",
		len(atoms), xm.SegmentVersion, len(xm.EncodeSegment(atoms)))
	for _, a := range atoms {
		fmt.Printf("  %s\n", a)
	}
	gat := xm.NewGAT()
	gat.LoadAtoms(atoms)
	cpat := xm.TranslateCache(gat)
	ppat := xm.TranslatePrefetch(gat)
	mpat := xm.TranslateMemCtl(gat)
	zpat := compress.Translate(gat)
	fmt.Printf("\ntranslated private attribute tables (§4.2):\n")
	fmt.Printf("  %-4s %-24s %-28s %-28s %-28s %s\n", "id", "name", "cache", "prefetcher", "memctl", "compression")
	for _, a := range atoms {
		c, _ := cpat.Lookup(a.ID)
		p, _ := ppat.Lookup(a.ID)
		m, _ := mpat.Lookup(a.ID)
		fmt.Printf("  %-4d %-24s pin=%-5v bypass=%-5v r=%-3d  pf=%-5v stride=%-4d lines    highRBL=%-5v irr=%-5v i=%-3d  %v\n",
			a.ID, a.Name, c.PinCandidate, c.Bypass, c.Reuse,
			p.Prefetchable, p.StrideLines, m.HighRBL, m.Irregular, m.Intensity,
			zpat.Lookup(a.ID))
	}
	if hexdump {
		fmt.Printf("\n%s", hex.Dump(xm.EncodeSegment(atoms)))
	}
}

func dumpPlacement(atoms []xm.Atom, banks int) {
	p := kernel.NewXMemPlacement(atoms, banks)
	fmt.Printf("§6.2 placement over %d bank groups:\n\n", banks)
	iso := p.IsolatedAtoms()
	for _, a := range atoms {
		banks := p.PreferredBanks(a.ID)
		kind := "shared pool"
		if slices.Contains(iso, a.ID) {
			kind = "ISOLATED"
		}
		fmt.Printf("  %-24s %-12s banks=%v\n", a.Name, kind, banks)
	}
	fmt.Printf("\nshared pool: %v\n", p.SharedBanks())
}
