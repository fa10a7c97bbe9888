package trace

import (
	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// Recorder implements workload.Program, capturing the access stream instead
// of simulating it. Allocation uses a simple bump allocator so recorded
// addresses are self-consistent.
type Recorder struct {
	trace Trace
	lib   *core.Lib
	va    layout
}

// layout is the recorder's bump allocator: the trace file stores no
// addresses for its regions, so Replay and Analyze rebuild it to find them.
// Regions are placed in Malloc order from 1 MiB up, each followed by one
// guard page.
type layout struct{ next mem.Addr }

func newLayout() layout { return layout{next: 1 << 20} }

// place returns the base of the next region, of size bytes.
func (l *layout) place(size uint64) mem.Addr {
	base := l.next
	l.next += mem.Addr(((size+mem.PageBytes-1)/mem.PageBytes + 1) * mem.PageBytes)
	return base
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{lib: core.NewLib(nil), va: newLayout()}
}

// Record runs the workload against the recorder and returns its trace.
func Record(w workload.Workload) *Trace {
	r := NewRecorder()
	if w.Declare != nil {
		decl := core.NewLib(nil)
		w.Declare(decl)
		r.lib = core.NewLibWithAtoms(nil, decl.Atoms())
	}
	w.Run(r)
	t := r.trace
	return &t
}

// Load implements workload.Program.
func (r *Recorder) Load(site int, va mem.Addr) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvLoad, Site: int32(site), Addr: uint64(va)})
}

// Store implements workload.Program.
func (r *Recorder) Store(site int, va mem.Addr) {
	r.trace.Events = append(r.trace.Events, Event{Kind: EvStore, Site: int32(site), Addr: uint64(va)})
}

// Work implements workload.Program. Consecutive work batches coalesce.
func (r *Recorder) Work(n int) {
	if k := len(r.trace.Events); k > 0 && r.trace.Events[k-1].Kind == EvWork {
		r.trace.Events[k-1].Addr += uint64(n)
		return
	}
	r.trace.Events = append(r.trace.Events, Event{Kind: EvWork, Addr: uint64(n)})
}

// Malloc implements workload.Program.
func (r *Recorder) Malloc(name string, size uint64, atom core.AtomID) mem.Addr {
	base := r.va.place(size)
	r.trace.Events = append(r.trace.Events, Event{
		Kind: EvMalloc, Site: int32(atom), Addr: uint64(size), Name: name,
	})
	return base
}

// Lib implements workload.Program.
func (r *Recorder) Lib() *core.Lib { return r.lib }

// Replay converts a trace back into a runnable workload. Malloc events
// re-allocate regions in recorded order; because the recorder's bump
// allocator is deterministic, recorded addresses remap onto the replayed
// allocations by preserving each access' offset from its region base.
func Replay(name string, t *Trace) workload.Workload {
	return ReplayWithAtoms(name, t, nil)
}

// ReplayWithAtoms replays a trace with profiler-derived atoms attached:
// atom i describes region i (the ordering Profile.InferAtoms produces), so
// an unannotated program, once profiled, re-runs with the full XMem
// machinery engaged — the §3.5.1 profiling expression channel end to end.
func ReplayWithAtoms(name string, t *Trace, atoms []core.Atom) workload.Workload {
	return workload.Workload{
		Name: name,
		Declare: func(lib *core.Lib) {
			for _, a := range atoms {
				lib.CreateAtom(a.Name, a.Attrs)
			}
		},
		Run: func(p workload.Program) {
			// Rebuild the recorder's address map so recorded VAs can be
			// rebased onto this machine's allocations.
			recorded := newLayout()
			type region struct {
				recBase mem.Addr
				newBase mem.Addr
				size    uint64
			}
			var regions []region
			rebase := func(va mem.Addr) (mem.Addr, bool) {
				for _, r := range regions {
					if va >= r.recBase && va < r.recBase+mem.Addr(r.size) {
						return r.newBase + (va - r.recBase), true
					}
				}
				return 0, false
			}
			for _, e := range t.Events {
				switch e.Kind {
				case EvMalloc:
					atomID := core.AtomID(e.Site)
					idx := len(regions)
					if idx < len(atoms) {
						// Profiled replay: region i is described by
						// inferred atom i.
						atomID = p.Lib().CreateAtom(atoms[idx].Name, atoms[idx].Attrs)
					}
					newBase := p.Malloc(e.Name, e.Addr, atomID)
					if idx < len(atoms) {
						p.Lib().AtomMap(atomID, newBase, e.Addr)
						p.Lib().AtomActivate(atomID)
					}
					regions = append(regions, region{recBase: recorded.place(e.Addr), newBase: newBase, size: e.Addr})
				case EvWork:
					p.Work(int(e.Addr))
				case EvLoad:
					if va, ok := rebase(mem.Addr(e.Addr)); ok {
						p.Load(int(e.Site), va)
					}
				case EvStore:
					if va, ok := rebase(mem.Addr(e.Addr)); ok {
						p.Store(int(e.Site), va)
					}
				}
			}
		},
	}
}
