package span

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"xmem/internal/core"
	"xmem/internal/obs"
)

// SchemaVersion identifies the span stream format.
const SchemaVersion = "xmem.span.v1"

// Dump bundles one run's sampled spans for export. The JSONL form writes
// the Dump fields (minus Spans) as a compact header line followed by one
// span per line, so consumers can stream arbitrarily large traces and a
// truncated file fails validation at the exact line.
type Dump struct {
	// Schema is always SchemaVersion.
	Schema string `json:"schema"`
	// Workload names the run.
	Workload string `json:"workload"`
	// SampleEvery is the 1-in-N sampling period.
	SampleEvery uint64 `json:"sampleEvery"`
	// Sampled counts accesses selected by the sampler; Published those that
	// completed and were committed; Dropped those the ring overwrote.
	Sampled   uint64 `json:"sampled"`
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`
	// Spans are the retained spans in Seq order (not part of the header
	// line; each is one JSONL line).
	Spans []Span `json:"-"`
}

// WriteJSONL writes the header line followed by one span per line.
func (d *Dump) WriteJSONL(w io.Writer) error {
	d.Schema = SchemaVersion
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(d); err != nil {
		return err
	}
	for i := range d.Spans {
		if err := enc.Encode(&d.Spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ValidateJSONL checks a span JSONL stream: schema-tagged header, every
// subsequent line one well-formed span with ordered stage cycles. Errors
// carry the 1-based line number, so a truncated or corrupted dump names the
// exact line that broke. It returns the parsed dump on success.
func ValidateJSONL(data []byte) (*Dump, error) {
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed dump ends with a newline; anything after the final
	// newline is a truncated trailing record and will fail its line parse.
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("span: empty dump")
	}
	var d Dump
	if err := decodeStrictLine(lines[0], &d); err != nil {
		return nil, fmt.Errorf("span: line 1: header %v", err)
	}
	if d.Schema != SchemaVersion {
		return nil, fmt.Errorf("span: line 1: schema %q, want %q", d.Schema, SchemaVersion)
	}
	if d.SampleEvery == 0 {
		return nil, fmt.Errorf("span: line 1: sampleEvery is zero")
	}
	for i, ln := range lines[1:] {
		lineNo := i + 2
		var s Span
		if err := decodeStrictLine(ln, &s); err != nil {
			return nil, fmt.Errorf("span: line %d: %v (truncated dump?)", lineNo, err)
		}
		if err := checkSpan(&s); err != nil {
			return nil, fmt.Errorf("span: line %d: %v", lineNo, err)
		}
		d.Spans = append(d.Spans, s)
	}
	if uint64(len(d.Spans)) != d.Published-d.Dropped {
		return nil, fmt.Errorf("span: %d span lines, header promises %d (published %d - dropped %d)",
			len(d.Spans), d.Published-d.Dropped, d.Published, d.Dropped)
	}
	return &d, nil
}

// decodeStrictLine parses exactly one JSON value from one line, rejecting
// trailing garbage (a second value glued on by a bad concatenation).
func decodeStrictLine(line []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

func checkSpan(s *Span) error {
	if s.Kind != "read" && s.Kind != "write" {
		return fmt.Errorf("span %d: kind %q is not read/write", s.Seq, s.Kind)
	}
	if s.End < s.Start {
		return fmt.Errorf("span %d: end %d before start %d", s.Seq, s.End, s.Start)
	}
	if len(s.Stages) == 0 {
		return fmt.Errorf("span %d: no stages", s.Seq)
	}
	for i, st := range s.Stages {
		if st.Layer == "" || st.Outcome == "" {
			return fmt.Errorf("span %d stage %d: empty layer or outcome", s.Seq, i)
		}
		if st.Done < st.At {
			return fmt.Errorf("span %d stage %d (%s): done %d before at %d", s.Seq, i, st.Layer, st.Done, st.At)
		}
	}
	return nil
}

// --- Chrome trace_event export ---

// spanEvent is a complete ("X") trace event; pid/tid group spans by atom.
type spanEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

type spanTraceFile struct {
	TraceEvents     []spanEvent       `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// spanTracePid groups the span tracks apart from the obs counter tracks
// (pids 1..N) and atom counter tracks (pid 1000) so a merged view stays
// readable.
const spanTracePid = 2000

// WriteChromeTrace writes the spans as nested complete events: one parent
// event per span on the owning atom's thread track, one child event per
// stage. chrome://tracing and Perfetto nest children inside the parent by
// time containment. Timestamps are simulated cycles.
func (d *Dump) WriteChromeTrace(w io.Writer) error {
	evs := []spanEvent{{
		Name: "process_name", Ph: "M", Pid: spanTracePid,
		Args: map[string]string{"name": "spans"},
	}}

	// One thread track per atom, named once, in deterministic ID order.
	type track struct {
		tid  int
		name string
	}
	tracks := map[core.AtomID]track{}
	for i := range d.Spans {
		s := &d.Spans[i]
		if _, ok := tracks[s.Atom]; ok {
			continue
		}
		name := "atom " + strconv.Itoa(int(s.Atom))
		if s.Atom == core.InvalidAtom {
			name = obs.UnattributedName
		} else if s.AtomName != "" {
			name = fmt.Sprintf("atom %s (%d)", s.AtomName, s.Atom)
		}
		tracks[s.Atom] = track{tid: int(s.Atom), name: name}
	}
	ids := make([]core.AtomID, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		tr := tracks[id]
		evs = append(evs, spanEvent{
			Name: "thread_name", Ph: "M", Pid: spanTracePid, Tid: tr.tid,
			Args: map[string]string{"name": tr.name},
		})
	}

	for i := range d.Spans {
		s := &d.Spans[i]
		tid := tracks[s.Atom].tid
		evs = append(evs, spanEvent{
			Name: fmt.Sprintf("%s pa=%#x", s.Kind, s.PA),
			Ph:   "X", Pid: spanTracePid, Tid: tid,
			Ts: s.Start, Dur: s.End - s.Start,
			Args: map[string]string{
				"seq":  strconv.FormatUint(s.Seq, 10),
				"pc":   fmt.Sprintf("%#x", s.PC),
				"path": s.Path(),
			},
		})
		for _, st := range s.Stages {
			args := map[string]string{}
			if st.Reason != "" {
				args["reason"] = st.Reason
			}
			evs = append(evs, spanEvent{
				Name: st.Layer + ":" + st.Outcome,
				Ph:   "X", Pid: spanTracePid, Tid: tid,
				Ts: st.At, Dur: st.Done - st.At, Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(spanTraceFile{
		TraceEvents:     evs,
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"schema":      SchemaVersion,
			"workload":    d.Workload,
			"sampleEvery": strconv.FormatUint(d.SampleEvery, 10),
		},
	})
}

// WriteFile writes the dump to path: ".trace.json"/".chrome.json" → nested
// Chrome trace, anything else → the JSONL stream.
func (d *Dump) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span: %w", err)
	}
	switch {
	case strings.HasSuffix(path, ".trace.json"), strings.HasSuffix(path, ".chrome.json"):
		err = d.WriteChromeTrace(f)
	default:
		err = d.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span: write %s: %w", path, err)
	}
	return nil
}
