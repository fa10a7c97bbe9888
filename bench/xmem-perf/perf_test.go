package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from a fresh seed-1 pass")

// smokeSize scales the points of the smoke and fidelity tests.
const smokeSize = 0.25

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the command's output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload at a reduced size for one pass, untraced
// and traced, and checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json names %v", names, specNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				rep, err := execute(options{
					workload: name, seed: 1, trace: trace, size: smokeSize, minPasses: 1,
				}, &out, &bytes.Buffer{})
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted == 0 || !rep.Correct {
					t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(last.Metrics), len(want))
				}
				for n := range last.Metrics {
					if !valid.MatchString(n) {
						t.Errorf("metric name %q", n)
					}
				}
			})
		}
	}
}

// TestStackFidelity checks that the replay stack reproduces sim.Run's
// cache and DRAM statistics exactly on the Baseline points of tiled and on
// every placement point. XMem-cache points are excluded: the pinning
// classifier is internal to sim, so the stack's L3 does not pin.
func TestStackFidelity(t *testing.T) {
	for _, name := range []string{"tiled", "placement"} {
		w, _ := workloadByName(name)
		for _, p := range w.points(1, smokeSize) {
			if p.cfg.XMemCache {
				continue
			}
			res, err := p.simulate(p.ws)
			if err != nil {
				t.Fatalf("%s: %v", p.key, err)
			}
			s, err := newStack(p.cfg, p.ws[0], 1)
			if err != nil {
				t.Fatalf("%s: %v", p.key, err)
			}
			s.run(p.ws[0])
			r := res.cores[0]
			for _, c := range []struct {
				level     string
				got, want any
			}{
				{"L1D", s.l1d.Stats(), r.L1D},
				{"L2", s.l2.Stats(), r.L2},
				{"L3", s.l3.Stats(), r.L3},
				{"DRAM", s.ctl.Stats(), r.DRAM},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("%s/%s %s: stack %+v, sim.Run %+v", name, p.key, c.level, c.got, c.want)
				}
			}
		}
	}
}

// TestGoldens recomputes every workload's seed-1 hashes from one pass and
// compares them with testdata/golden.json (with -update, rewrites it).
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	all := map[string]map[string]string{}
	for _, w := range workloads() {
		points := w.points(1, 1)
		soft, err := runNullPass(points, false)
		if err != nil {
			t.Fatal(err)
		}
		chk := newChecker(points, soft.counts, nil)
		chk.check(runPass(w.name, points, mode{}))
		if chk.failed != 0 {
			t.Fatalf("%s: %v", w.name, chk.problems)
		}
		all[w.name] = map[string]string{}
		for k, h := range chk.hashes() {
			all[w.name][k] = fmt.Sprintf("%016x", h)
		}
	}
	if *update {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for w, keys := range all {
		for k, hex := range keys {
			if want := fmt.Sprintf("%016x", got[w][k]); want != hex {
				t.Errorf("%s %s: hash %s, golden %s", w, k, hex, want)
			}
		}
		if len(got[w]) != len(keys) {
			t.Errorf("%s: %d goldens for %d points", w, len(got[w]), len(keys))
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
