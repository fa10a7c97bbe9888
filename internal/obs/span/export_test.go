package span

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xmem/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// goldenDump is a small deterministic dump: one attributed span with a full
// miss path and one unattributed cache hit.
func goldenDump() *Dump {
	tile := Span{
		Seq: 1, Atom: 1, AtomName: "gemm.tile", Kind: "read",
		PA: 0x1040, PC: 0x400000, Start: 100, End: 450,
	}
	tile.AddStage("amu", "atom", ReasonALBHit, 100, 100)
	tile.AddStage("l1d", "miss", "", 100, 104)
	tile.AddStage("l2", "miss", "", 104, 112)
	tile.AddStage("l3", "miss", ReasonPinnedByReuse, 112, 139)
	tile.AddStage("dram", "row-hit", "", 139, 450)
	other := Span{
		Seq: 2, Atom: core.InvalidAtom, Kind: "write",
		PA: 0x2000, PC: 0x400010, Start: 200, End: 204,
	}
	other.AddStage("amu", "no-atom", ReasonALBMissAAMWalk, 200, 200)
	other.AddStage("l1d", "hit", "", 200, 204)
	return &Dump{
		Schema:      SchemaVersion,
		Workload:    "gemm/n96/t16384",
		SampleEvery: 100,
		Sampled:     2,
		Published:   2,
		Dropped:     0,
		Spans:       []Span{tile, other},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenDump().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ValidateJSONL(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Workload != "gemm/n96/t16384" || d.SampleEvery != 100 || len(d.Spans) != 2 {
		t.Fatalf("round trip lost data: %+v", d)
	}
	if d.Spans[0].AtomName != "gemm.tile" || len(d.Spans[0].Stages) != 5 {
		t.Fatalf("span 1 = %+v", d.Spans[0])
	}
	if d.Spans[1].Atom != core.InvalidAtom {
		t.Fatalf("span 2 atom = %d", d.Spans[1].Atom)
	}
}

// TestValidateJSONLTruncated cuts the stream at every byte boundary inside
// the final line: each prefix must be rejected, and the error must name the
// broken line.
func TestValidateJSONLTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenDump().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	for cut := lastStart + 1; cut < len(data)-1; cut += 7 {
		_, err := ValidateJSONL(data[:cut])
		if err == nil {
			t.Fatalf("truncation at byte %d validated", cut)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("truncation at byte %d: error %q does not name line 3", cut, err)
		}
	}
	// Dropping a whole span line breaks the header's span count instead.
	if _, err := ValidateJSONL(data[:lastStart]); err == nil ||
		!strings.Contains(err.Error(), "header promises") {
		t.Fatalf("missing-line error = %v", err)
	}
}

// FuzzValidateJSONL: ValidateJSONL never panics, and every dump it accepts
// writes out (WriteJSONL) as a stream that validates to the same dump. The
// seed corpus is committed under testdata/fuzz/FuzzValidateJSONL.
func FuzzValidateJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ValidateJSONL(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL of an accepted dump: %v", err)
		}
		again, err := ValidateJSONL(buf.Bytes())
		if err != nil {
			t.Fatalf("ValidateJSONL of a rewritten dump: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip read %+v, want %+v", again, d)
		}
	})
}

func TestValidateJSONLRejects(t *testing.T) {
	cases := map[string]func(*Dump){
		"zero sampleEvery": func(d *Dump) { d.SampleEvery = 0 },
		"bad kind":         func(d *Dump) { d.Spans[0].Kind = "modify" },
		"end before start": func(d *Dump) { d.Spans[1].End = d.Spans[1].Start - 1 },
		"no stages":        func(d *Dump) { d.Spans[0].Stages = nil },
		"empty layer":      func(d *Dump) { d.Spans[0].Stages[2].Layer = "" },
		"stage done<at":    func(d *Dump) { d.Spans[0].Stages[4].Done = d.Spans[0].Stages[4].At - 1 },
		"count mismatch":   func(d *Dump) { d.Published = 5 },
	}
	for name, mutate := range cases {
		d := goldenDump()
		mutate(d)
		var buf bytes.Buffer
		if err := d.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateJSONL(buf.Bytes()); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}

	if _, err := ValidateJSONL(nil); err == nil {
		t.Error("empty dump validated")
	}
	if _, err := ValidateJSONL([]byte(`{"schema":"bogus.v0","sampleEvery":1}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong-schema error = %v", err)
	}
	// Two JSON values glued onto one line (a corrupt concatenation).
	var buf bytes.Buffer
	goldenDump().WriteJSONL(&buf)
	glued := bytes.Replace(buf.Bytes(), []byte("}\n{\"seq\":2"), []byte("}{\"seq\":2"), 1)
	if _, err := ValidateJSONL(glued); err == nil ||
		!strings.Contains(err.Error(), "trailing data") {
		t.Errorf("glued-lines error = %v", err)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenDump().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// The file must be loadable JSON with each stage event nested inside its
	// parent span event by time containment (how chrome://tracing nests).
	var tf spanTraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var parent *spanEvent
	for i := range tf.TraceEvents {
		ev := &tf.TraceEvents[i]
		switch {
		case ev.Ph == "M":
		case ev.Args["seq"] != "":
			parent = ev
		default:
			if parent == nil {
				t.Fatalf("stage event %q before any span event", ev.Name)
			}
			if ev.Ts < parent.Ts || ev.Ts+ev.Dur > parent.Ts+parent.Dur {
				t.Errorf("stage %q [%d,%d] escapes parent %q [%d,%d]",
					ev.Name, ev.Ts, ev.Ts+ev.Dur, parent.Name, parent.Ts, parent.Ts+parent.Dur)
			}
		}
	}
}

func TestWriteFileFormats(t *testing.T) {
	dir := t.TempDir()
	d := goldenDump()
	for _, name := range []string{"s.jsonl", "s.trace.json", "s.chrome.json"} {
		path := filepath.Join(dir, name)
		if err := d.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v (%d bytes)", name, err, len(data))
		}
		if name == "s.jsonl" {
			if _, err := ValidateJSONL(data); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		} else if !strings.Contains(string(data), "traceEvents") {
			t.Errorf("%s is not a chrome trace", name)
		}
	}
}
