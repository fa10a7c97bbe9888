// Package experiments reproduces the paper's evaluation: Figures 4-8, the
// ALB coverage claim of §4.2 and the overhead analysis of §4.4, plus the
// hybrid-memory, NUMA, ablation and co-run extensions. Experiments is the
// one table of them. Each entry runs a sweep at a Preset and prints the
// rows or series the paper reports; the presets scale the sweeps between
// test, default and paper-sized runs.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"xmem/internal/experiments/runner"
)

// Report is an experiment's result. It prints the paper's rows or series,
// and its JSON is what xmem-bench -json writes under the result's key.
type Report interface{ Print(io.Writer) }

// Experiment is one -exp name of xmem-bench.
type Experiment struct {
	Name string
	// InAll marks the entries that "-exp all" selects.
	InAll bool
	// Result is the JSON key of the report the entry shows. Entries that
	// show the same result share one sweep.
	Result string
	// Run runs the result's sweep at a preset.
	Run func(Preset, runner.Options) (Report, error)
	// Print prints the entry's view of the report.
	Print func(Report, io.Writer)
}

// Experiments returns the table in xmem-bench's print order.
func Experiments() []Experiment {
	show := Report.Print
	fig7 := sweep(runFig7Sweep)
	return []Experiment{
		{Name: "fig4", InAll: true, Result: "fig4", Run: sweep(runFig4Sweep), Print: show},
		{Name: "fig5", InAll: true, Result: "fig5", Run: sweep(runFig5Sweep), Print: show},
		{Name: "fig6", InAll: true, Result: "fig6", Run: sweep(runFig6Sweep), Print: show},
		{Name: "fig7", InAll: true, Result: "fig7", Run: fig7, Print: show},
		// Figure 8 is a second view of Figure 7's runs.
		{Name: "fig8", InAll: true, Result: "fig7", Run: fig7, Print: func(r Report, w io.Writer) { r.(Fig7Result).PrintFig8(w) }},
		{Name: "alb", InAll: true, Result: "alb", Run: sweep(runALBSweep), Print: show},
		{Name: "overhead", InAll: true, Result: "overhead", Run: sweep(runOverheadSweep), Print: show},
		{Name: "hybrid", InAll: true, Result: "hybrid", Run: sweep(runHybridSweep), Print: show},
		{Name: "numa", Result: "numa", Run: sweep(runNumaSweep), Print: show},
		{Name: "ablation", Result: "ablation", Run: sweep(runAblationSweep), Print: show},
		{Name: "corun", Result: "corun", Run: sweep(runCorunSweep), Print: show},
	}
}

// sweep adapts a typed sweep to Experiment.Run.
func sweep[R Report](run func(Preset, runner.Options) (R, error)) func(Preset, runner.Options) (Report, error) {
	return func(p Preset, opt runner.Options) (Report, error) { return run(p, opt) }
}

// Select parses xmem-bench's -exp value, a comma-separated list of names
// in which "all" stands for every entry with InAll set. It returns the
// named entries once each, in table order, or an error naming the first
// unknown name.
func Select(list string) ([]Experiment, error) {
	table := Experiments()
	chosen := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, e := range table {
			if name == e.Name || name == "all" && e.InAll {
				chosen[e.Name], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q; -exp takes %s", name, Usage())
		}
	}
	var sel []Experiment
	for _, e := range table {
		if chosen[e.Name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// Usage describes the valid -exp values.
func Usage() string {
	var names, notInAll []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
		if !e.InAll {
			notInAll = append(notInAll, e.Name)
		}
	}
	return fmt.Sprintf("a comma-separated list of all, %s (all = every one but %s)",
		strings.Join(names, ", "), strings.Join(notInAll, ", "))
}
