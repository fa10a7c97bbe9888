package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// VetSchema is the identifier of the machine-readable report format below.
// Consumers (xmem-inspect -vet, CI trend tracking) check it before reading
// anything else; it only changes when a field changes meaning.
const VetSchema = "xmem-vet/v2"

// VetReport is the stable JSON shape of one xmem-vet run.
type VetReport struct {
	// Schema is always VetSchema.
	Schema string `json:"schema"`
	// Module is the analyzed module's import path.
	Module string `json:"module"`
	// Analyzers lists every analyzer that ran, in execution order, whether
	// or not it found anything — a zero-finding report still proves which
	// checks were applied.
	Analyzers []VetAnalyzer `json:"analyzers"`
	// Findings are the diagnostics, sorted by file, line, column, analyzer.
	// Empty (never null) when the run is clean.
	Findings []VetFinding `json:"findings"`
}

// VetAnalyzer identifies one check that ran.
type VetAnalyzer struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// VetFinding is one diagnostic, with the position split for consumers.
type VetFinding struct {
	Analyzer string `json:"analyzer"`
	// File is relative to the module root when the source lies under it.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
	// SuggestedFixes are machine-applicable repairs (omitted when the
	// analyzer proved the violation but not the remedy).
	SuggestedFixes []VetFix `json:"suggested_fixes,omitempty"`
}

// VetFix is one machine-applicable repair.
type VetFix struct {
	Msg   string    `json:"msg"`
	Edits []VetEdit `json:"edits"`
}

// VetEdit replaces the bytes [start, end) of the file with new_text.
type VetEdit struct {
	// File is relative to the module root when the source lies under it.
	File    string `json:"file"`
	Start   int    `json:"start"`
	End     int    `json:"end"`
	NewText string `json:"new_text"`
}

// SortFindings orders findings by (file, line, column, analyzer, message)
// so printed and JSON-encoded output is deterministic across runs — CI
// diffs and golden tests depend on it.
func SortFindings(findings []Finding) {
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// NewVetReport assembles the JSON report for one run. root is the module
// root directory used to relativize file paths; findings must already be
// sorted (Run sorts them).
func NewVetReport(module, root string, analyzers []*Analyzer, findings []Finding) VetReport {
	r := VetReport{
		Schema:    VetSchema,
		Module:    module,
		Analyzers: make([]VetAnalyzer, 0, len(analyzers)),
		Findings:  make([]VetFinding, 0, len(findings)),
	}
	for _, a := range analyzers {
		r.Analyzers = append(r.Analyzers, VetAnalyzer{Name: a.Name, Doc: a.Doc})
	}
	relativize := func(file string) string {
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
		}
		return file
	}
	for _, f := range findings {
		vf := VetFinding{
			Analyzer: f.Analyzer,
			File:     relativize(f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Msg:      f.Message,
		}
		for _, fix := range f.SuggestedFixes {
			vfix := VetFix{Msg: fix.Message, Edits: make([]VetEdit, 0, len(fix.Edits))}
			for _, e := range fix.Edits {
				vfix.Edits = append(vfix.Edits, VetEdit{
					File:    relativize(e.File),
					Start:   e.Start,
					End:     e.End,
					NewText: e.NewText,
				})
			}
			vf.SuggestedFixes = append(vf.SuggestedFixes, vfix)
		}
		r.Findings = append(r.Findings, vf)
	}
	return r
}

// Write emits the report as indented JSON with a trailing newline.
func (r VetReport) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadVetReport parses and validates a report produced by Write; any
// schema but VetSchema is rejected before the fields are trusted.
func ReadVetReport(data []byte) (VetReport, error) {
	var r VetReport
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("analysis: parsing vet report: %w", err)
	}
	if r.Schema != VetSchema {
		return r, fmt.Errorf("analysis: vet report schema %q, want %q", r.Schema, VetSchema)
	}
	if r.Module == "" {
		return r, fmt.Errorf("analysis: vet report missing module")
	}
	if len(r.Analyzers) == 0 {
		return r, fmt.Errorf("analysis: vet report lists no analyzers")
	}
	for i, f := range r.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line <= 0 {
			return r, fmt.Errorf("analysis: vet report finding %d malformed (analyzer %q, file %q, line %d)",
				i, f.Analyzer, f.File, f.Line)
		}
		for j, fix := range f.SuggestedFixes {
			if len(fix.Edits) == 0 {
				return r, fmt.Errorf("analysis: vet report finding %d fix %d has no edits", i, j)
			}
			for k, e := range fix.Edits {
				if e.File == "" || e.Start < 0 || e.End < e.Start {
					return r, fmt.Errorf("analysis: vet report finding %d fix %d edit %d malformed (file %q, start %d, end %d)",
						i, j, k, e.File, e.Start, e.End)
				}
			}
		}
	}
	return r, nil
}
