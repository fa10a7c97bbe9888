package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenReport is a small deterministic report exercising counter groups,
// epoch deltas, and per-atom tracks.
func goldenReport() *Report {
	return &Report{
		Schema:      SchemaVersion,
		Workload:    "gemm/n96/t16384",
		EpochCycles: 100,
		Counters:    []string{"cache.l3.demand_misses", "dram.ctl.row_hits"},
		Samples: []Sample{
			{Epoch: 1, Cycle: 100, Values: []float64{10, 4},
				Atoms: []AtomSample{{ID: 1, Counters: AtomCounters{DemandMisses: 6, RowHits: 2}}}},
			{Epoch: 2, Cycle: 200, Values: []float64{25, 9},
				Atoms: []AtomSample{
					{ID: 1, Counters: AtomCounters{DemandMisses: 14, RowHits: 5}},
					{ID: 2, Counters: AtomCounters{DemandMisses: 1}},
				}},
		},
		PerAtom: []AtomSummary{
			{ID: 1, Name: "gemm.tile", AtomCounters: AtomCounters{DemandMisses: 14, RowHits: 5}},
			{ID: 2, Name: "gemm.A", AtomCounters: AtomCounters{DemandMisses: 1}},
		},
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestJSONRoundTripValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ValidateJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "gemm/n96/t16384" || len(r.Samples) != 2 || len(r.PerAtom) != 2 {
		t.Fatalf("round trip lost data: %+v", r)
	}
}

// FuzzValidateJSON: ValidateJSON never panics, and every report it accepts
// writes out (WriteJSON) as JSON that validates to the same report. Reports
// compare by their written JSON: an empty omitempty slice reads back as
// nil, which is the same report. The seed corpus is committed under
// testdata/fuzz/FuzzValidateJSON.
func FuzzValidateJSON(f *testing.F) {
	write := func(t *testing.T, r *Report) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted report: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ValidateJSON(data)
		if err != nil {
			return
		}
		first := write(t, r)
		again, err := ValidateJSON(first)
		if err != nil {
			t.Fatalf("ValidateJSON of a rewritten report: %v\n%s", err, first)
		}
		if second := write(t, again); !bytes.Equal(second, first) {
			t.Fatalf("round trip wrote\n%s\nwant\n%s", second, first)
		}
	})
}

func TestValidateJSONRejects(t *testing.T) {
	cases := map[string]func(*Report){
		"wrong schema":     func(r *Report) { r.Schema = "bogus" },
		"zero epoch":       func(r *Report) { r.EpochCycles = 0 },
		"no counters":      func(r *Report) { r.Counters = nil },
		"bad counter name": func(r *Report) { r.Counters[0] = "NotValid" },
		"no samples":       func(r *Report) { r.Samples = nil },
		"ragged values":    func(r *Report) { r.Samples[1].Values = r.Samples[1].Values[:1] },
		"non-monotonic":    func(r *Report) { r.Samples[1].Cycle = 100 },
	}
	for name, mutate := range cases {
		r := goldenReport()
		mutate(r)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if name == "wrong schema" {
			// WriteJSON stamps the schema; corrupt it post-encode.
			data = bytes.Replace(data, []byte(SchemaVersion), []byte("bogus.v0"), 1)
		}
		if _, err := ValidateJSON(data); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	if _, err := ValidateJSON([]byte("{")); err == nil {
		t.Error("malformed JSON validated")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if lines[0] != "epoch,cycle,cache.l3.demand_misses,dram.ctl.row_hits" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "2,200,25,9" {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestWriteFileFormats(t *testing.T) {
	dir := t.TempDir()
	r := goldenReport()
	for _, name := range []string{"m.json", "m.csv", "m.trace.json"} {
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v (%d bytes)", name, err, len(data))
		}
		switch name {
		case "m.json":
			if _, err := ValidateJSON(data); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case "m.csv":
			if !strings.HasPrefix(string(data), "epoch,cycle,") {
				t.Errorf("%s is not CSV", name)
			}
		case "m.trace.json":
			if !strings.Contains(string(data), "traceEvents") {
				t.Errorf("%s is not a chrome trace", name)
			}
		}
	}
}
