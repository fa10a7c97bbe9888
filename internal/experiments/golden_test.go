package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"xmem/internal/experiments/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/mini.txt and testdata/mini.json from this run")

// experiment returns the table entry called name.
func experiment(t testing.TB, name string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q", name)
	return Experiment{}
}

// goldenPreset is the preset the golden and the shape tests run a result
// at: Mini, with fewer kernels (and for corun and ablation a smaller
// matrix) where the full mini sweep would dominate the package's test time.
func goldenPreset(result string) Preset {
	p := Mini()
	switch result {
	case "fig6":
		p.UC1Kernels = []string{"gemm"}
	case "corun", "ablation":
		p.UC1Kernels = []string{"gemm"}
		p.UC1N = 96
	}
	return p
}

// miniReports caches each result's report for the test binary. Tests in
// this package run sequentially, so the map needs no lock.
var miniReports = map[string]Report{}

// miniReport returns the report experiment name shows, at its golden
// preset. Each sweep runs at most once per test binary, so the golden and
// the shape tests check the same results.
func miniReport(t *testing.T, name string) Report {
	t.Helper()
	e := experiment(t, name)
	if r, ok := miniReports[e.Result]; ok {
		return r
	}
	r, err := e.Run(goldenPreset(e.Result), runner.Options{Parallel: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	miniReports[e.Result] = r
	return r
}

// TestMiniGolden pins every experiment's printed view and JSON at its
// golden preset: testdata/mini.txt holds what xmem-bench prints for each
// -exp name in table order, and testdata/mini.json what -json writes under
// each result's key. Regenerate both with
//
//	go test ./internal/experiments -run Golden -update
func TestMiniGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps")
	}
	var text bytes.Buffer
	results := map[string]Report{}
	for _, e := range Experiments() {
		r := miniReport(t, e.Name)
		e.Print(r, &text)
		fmt.Fprintln(&text)
		results[e.Result] = r
	}
	js, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/mini.txt", text.Bytes())
	checkGolden(t, "testdata/mini.json", js)
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			var wl string
			if i < len(w) {
				wl = w[i]
			}
			t.Errorf("%s line %d:\n got %q\nwant %q\n(rerun with -update if the change is intended)", path, i+1, g[i], wl)
			return
		}
	}
	t.Errorf("%s: got %d lines, want %d (rerun with -update if the change is intended)", path, len(g), len(w))
}
