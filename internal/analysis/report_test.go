package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func TestVetReportRoundTrip(t *testing.T) {
	findings := []Finding{
		{
			Analyzer: "attrtruth",
			Pos:      token.Position{Filename: "/mod/internal/workload/x.go", Line: 12, Column: 3},
			Message:  "Store into atom declared ReadOnly",
		},
		{
			Analyzer: "noshare",
			Pos:      token.Position{Filename: "/elsewhere/y.go", Line: 4, Column: 1},
			Message:  "captured by a go statement",
		},
	}
	r := NewVetReport("xmem", "/mod", All(), findings)

	if r.Schema != VetSchema {
		t.Fatalf("schema %q, want %q", r.Schema, VetSchema)
	}
	if len(r.Analyzers) != len(All()) {
		t.Fatalf("analyzers %d, want %d", len(r.Analyzers), len(All()))
	}
	if got := r.Findings[0].File; got != "internal/workload/x.go" {
		t.Errorf("in-module path not relativized: %q", got)
	}
	if got := r.Findings[1].File; got != "/elsewhere/y.go" {
		t.Errorf("out-of-module path mangled: %q", got)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVetReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Findings) != 2 || back.Findings[0].Msg != findings[0].Message {
		t.Errorf("round trip lost findings: %+v", back.Findings)
	}
}

func TestVetReportEmptyFindingsIsArray(t *testing.T) {
	r := NewVetReport("xmem", "", All(), nil)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw["findings"])) == "null" {
		t.Error("clean report encodes findings as null, want []")
	}
	if _, err := ReadVetReport(buf.Bytes()); err != nil {
		t.Errorf("clean report fails validation: %v", err)
	}
}

// TestVetReportValidation: each report below breaks exactly one rule, and
// ReadVetReport must reject it for that rule.
func TestVetReportValidation(t *testing.T) {
	finding := func(fix string) string {
		return `{"schema":"xmem-vet/v2","module":"m","analyzers":[{"name":"a","doc":"d"}],"findings":[{"analyzer":"a","file":"f","line":1,"col":1,"msg":"m","suggested_fixes":[{"msg":"f","edits":` + fix + `}]}]}`
	}
	for _, c := range []struct{ report, why string }{
		{`{}`, "schema"},
		{`{"schema":"xmem-vet/v1","module":"m","analyzers":[{"name":"a","doc":"d"}],"findings":[]}`, "schema"},
		{`{"schema":"xmem-vet/v2","module":"","analyzers":[{"name":"a","doc":"d"}],"findings":[]}`, "missing module"},
		{`{"schema":"xmem-vet/v2","module":"m","analyzers":[],"findings":[]}`, "no analyzers"},
		{`{"schema":"xmem-vet/v2","module":"m","analyzers":[{"name":"a","doc":"d"}],"findings":[{"analyzer":"","file":"f","line":1,"col":1,"msg":"m"}]}`, "finding 0 malformed"},
		{finding(`[]`), "has no edits"},
		{finding(`[{"file":"","start":0,"end":1,"new_text":"x"}]`), "edit 0 malformed"},
		{finding(`[{"file":"a.go","start":5,"end":2,"new_text":"x"}]`), "edit 0 malformed"},
	} {
		if _, err := ReadVetReport([]byte(c.report)); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("ReadVetReport(%s) = %v, want an error naming %q", c.report, err, c.why)
		}
	}
	if _, err := ReadVetReport([]byte(finding(`[{"file":"a.go","start":0,"end":1,"new_text":"x"}]`))); err != nil {
		t.Errorf("well-formed fix rejected: %v", err)
	}
}

// TestVetReportFixRoundTrip proves a v2 report carrying suggested fixes
// survives Write/ReadVetReport with edit paths relativized and byte
// offsets intact.
func TestVetReportFixRoundTrip(t *testing.T) {
	f := Finding{
		Analyzer: "attrinfer",
		Pos:      token.Position{Filename: "/mod/pkg/a.go", Line: 4, Column: 2},
		Message:  "weaker than proven",
		SuggestedFixes: []SuggestedFix{{
			Message: "declare Pattern",
			Edits:   []TextEdit{{File: "/mod/pkg/a.go", Start: 10, End: 20, NewText: "core.Attributes{}"}},
		}},
	}
	r := NewVetReport("xmem", "/mod", []*Analyzer{AttrInfer}, []Finding{f})
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadVetReport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Findings) != 1 || len(back.Findings[0].SuggestedFixes) != 1 {
		t.Fatalf("round trip lost fixes: %+v", back.Findings)
	}
	e := back.Findings[0].SuggestedFixes[0].Edits[0]
	if e.File != "pkg/a.go" || e.Start != 10 || e.End != 20 || e.NewText != "core.Attributes{}" {
		t.Errorf("edit round-tripped as %+v", e)
	}
}

// TestSortFindings pins the deterministic finding order every consumer
// (text output, JSON reports, golden tests) depends on.
func TestSortFindings(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Finding {
		return Finding{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}
	findings := []Finding{
		mk("b.go", 3, 1, "noshare", "z"),
		mk("a.go", 9, 1, "attrtruth", "y"),
		mk("a.go", 2, 5, "dimcheck", "x"),
		mk("a.go", 2, 5, "attrinfer", "w"),
		mk("a.go", 2, 1, "dimcheck", "v"),
	}
	SortFindings(findings)
	var got []string
	for _, f := range findings {
		got = append(got, f.Pos.Filename+":"+f.Analyzer)
	}
	want := []string{"a.go:dimcheck", "a.go:attrinfer", "a.go:dimcheck", "a.go:attrtruth", "b.go:noshare"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestByNames(t *testing.T) {
	sel, err := ByNames("noshare,attrtruth")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "attrtruth" || sel[1].Name != "noshare" {
		t.Errorf("selection wrong or unordered: %v", []string{sel[0].Name, sel[1].Name})
	}
	if _, err := ByNames("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown analyzer not rejected: %v", err)
	}
	if _, err := ByNames(" , "); err == nil {
		t.Error("empty selection not rejected")
	}
}
