// Package trace records, stores, replays, and analyzes memory access
// traces. Tracing decouples workload generation from simulation — a
// recorded trace replays bit-identically on any machine configuration —
// and the analyzer computes the trace-level properties the paper's
// attributes describe (stride regularity, footprint, reuse), which is how
// a profiler would derive atom attributes for code it cannot annotate
// (§3.5.1 lists profiling as one of the three expression channels).
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xmem/internal/mem"
)

// EventKind tags a trace record.
type EventKind uint8

// Event kinds.
const (
	// EvLoad and EvStore are memory accesses.
	EvLoad EventKind = iota
	EvStore
	// EvWork is a batch of non-memory instructions.
	EvWork
	// EvMalloc introduces a named region (records the layout so replays
	// can re-create allocations).
	EvMalloc
)

// Event is one trace record.
type Event struct {
	Kind EventKind
	// Site is the access site (Load/Store) or the atom ID (Malloc).
	Site int32
	// Addr is the virtual address (Load/Store), the instruction count
	// (Work), or the region size (Malloc).
	Addr uint64
	// Name is set for Malloc events.
	Name string
}

// Trace is an in-memory access trace.
type Trace struct {
	Events []Event
}

var traceMagic = [8]byte{'X', 'M', 'E', 'M', 'T', 'R', 'C', '1'}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace")

// maxNameBytes is the longest Malloc name the format holds: its length is
// a uint16.
const maxNameBytes = 1<<16 - 1

// Write serializes the trace. It fails on a Malloc name longer than
// maxNameBytes; the bytes written before that event are then an
// incomplete trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(t.Events)))
	if _, err := bw.Write(n[:]); err != nil {
		return err
	}
	for _, e := range t.Events {
		if e.Kind == EvMalloc && len(e.Name) > maxNameBytes {
			return fmt.Errorf("trace: Malloc name of %d bytes exceeds %d", len(e.Name), maxNameBytes)
		}
		var rec [13]byte
		rec[0] = byte(e.Kind)
		binary.LittleEndian.PutUint32(rec[1:5], uint32(e.Site))
		binary.LittleEndian.PutUint64(rec[5:13], e.Addr)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		if e.Kind == EvMalloc {
			var l [2]byte
			binary.LittleEndian.PutUint16(l[:], uint16(len(e.Name)))
			if _, err := bw.Write(l[:]); err != nil {
				return err
			}
			if _, err := bw.WriteString(e.Name); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a serialized trace.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || !bytes.Equal(magic[:], traceMagic[:]) {
		return nil, ErrBadTrace
	}
	var n [8]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		return nil, ErrBadTrace
	}
	count := binary.LittleEndian.Uint64(n[:])
	const maxEvents = 1 << 30
	if count > maxEvents {
		return nil, fmt.Errorf("%w: %d events exceeds limit", ErrBadTrace, count)
	}
	// The header's count is unchecked until the records are read, so it
	// sizes at most the first maxPrealloc events; the slice grows past
	// that as records arrive.
	const maxPrealloc = 1 << 12
	t := &Trace{Events: make([]Event, 0, min(count, maxPrealloc))}
	for i := uint64(0); i < count; i++ {
		var rec [13]byte
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, ErrBadTrace
		}
		e := Event{
			Kind: EventKind(rec[0]),
			Site: int32(binary.LittleEndian.Uint32(rec[1:5])),
			Addr: binary.LittleEndian.Uint64(rec[5:13]),
		}
		if e.Kind == EvMalloc {
			var l [2]byte
			if _, err := io.ReadFull(br, l[:]); err != nil {
				return nil, ErrBadTrace
			}
			name := make([]byte, binary.LittleEndian.Uint16(l[:]))
			if _, err := io.ReadFull(br, name); err != nil {
				return nil, ErrBadTrace
			}
			e.Name = string(name)
		}
		t.Events = append(t.Events, e)
	}
	return t, nil
}

// Accesses returns the number of load/store events.
func (t *Trace) Accesses() int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == EvLoad || e.Kind == EvStore {
			n++
		}
	}
	return n
}

// FootprintBytes returns the number of distinct lines touched times the
// line size.
func (t *Trace) FootprintBytes() uint64 {
	lines := map[uint64]bool{}
	for _, e := range t.Events {
		if e.Kind == EvLoad || e.Kind == EvStore {
			lines[e.Addr>>mem.LineShift] = true
		}
	}
	return uint64(len(lines)) * mem.LineBytes
}
