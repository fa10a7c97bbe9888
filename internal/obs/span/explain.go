package span

import (
	"fmt"
	"io"
	"sort"

	"xmem/internal/core"
	"xmem/internal/obs"
)

// PathStat aggregates the spans of one atom that took the same causal path.
type PathStat struct {
	// Path is the stage-chain signature (see Span.Path).
	Path string `json:"path"`
	// Count is the number of sampled spans on this path.
	Count int `json:"count"`
	// TotalCycles is the summed end-to-end latency.
	TotalCycles uint64 `json:"totalCycles"`
	// P50/P95/P99 are exact latency percentiles over the path's spans.
	P50 uint64 `json:"p50"`
	P95 uint64 `json:"p95"`
	P99 uint64 `json:"p99"`
}

// AtomExplain is one atom's slow-path breakdown.
type AtomExplain struct {
	// Atom is the atom ID (core.InvalidAtom groups unattributed spans).
	Atom core.AtomID `json:"atom"`
	// Name is the atom's library name, when known.
	Name string `json:"name,omitempty"`
	// Count and TotalCycles cover all the atom's sampled spans.
	Count       int    `json:"count"`
	TotalCycles uint64 `json:"totalCycles"`
	P50         uint64 `json:"p50"`
	P95         uint64 `json:"p95"`
	P99         uint64 `json:"p99"`
	// Paths are the atom's causal paths, slowest total first.
	Paths []PathStat `json:"paths"`
}

// percentile returns the exact p-quantile of sorted (nearest-rank).
func percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Explain groups spans by atom and causal path, returning atoms sorted by
// total sampled latency (the structures costing the most cycles first) and
// each atom's paths sorted the same way.
func Explain(spans []Span) []AtomExplain {
	type pathAgg struct {
		lat []uint64
		sum uint64
	}
	type atomAgg struct {
		name  string
		paths map[string]*pathAgg
		lat   []uint64
		sum   uint64
	}
	atoms := map[core.AtomID]*atomAgg{}
	for i := range spans {
		s := &spans[i]
		a := atoms[s.Atom]
		if a == nil {
			a = &atomAgg{paths: map[string]*pathAgg{}}
			atoms[s.Atom] = a
		}
		if s.AtomName != "" {
			a.name = s.AtomName
		}
		lat := s.Latency()
		a.lat = append(a.lat, lat)
		a.sum += lat
		key := s.Path()
		p := a.paths[key]
		if p == nil {
			p = &pathAgg{}
			a.paths[key] = p
		}
		p.lat = append(p.lat, lat)
		p.sum += lat
	}

	out := make([]AtomExplain, 0, len(atoms))
	for id, a := range atoms {
		sort.Slice(a.lat, func(i, j int) bool { return a.lat[i] < a.lat[j] })
		ae := AtomExplain{
			Atom: id, Name: a.name, Count: len(a.lat), TotalCycles: a.sum,
			P50: percentile(a.lat, 0.50), P95: percentile(a.lat, 0.95), P99: percentile(a.lat, 0.99),
		}
		for key, p := range a.paths {
			sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
			ae.Paths = append(ae.Paths, PathStat{
				Path: key, Count: len(p.lat), TotalCycles: p.sum,
				P50: percentile(p.lat, 0.50), P95: percentile(p.lat, 0.95), P99: percentile(p.lat, 0.99),
			})
		}
		sort.Slice(ae.Paths, func(i, j int) bool {
			if ae.Paths[i].TotalCycles != ae.Paths[j].TotalCycles {
				return ae.Paths[i].TotalCycles > ae.Paths[j].TotalCycles
			}
			return ae.Paths[i].Path < ae.Paths[j].Path
		})
		out = append(out, ae)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalCycles != out[j].TotalCycles {
			return out[i].TotalCycles > out[j].TotalCycles
		}
		return out[i].Atom < out[j].Atom
	})
	return out
}

// WriteExplain renders the per-atom slow-path report for humans: for each
// atom, the top `topPaths` causal paths by total sampled cycles (0 = all),
// with per-path counts and latency percentiles.
func WriteExplain(w io.Writer, d *Dump, topPaths int) error {
	fmt.Fprintf(w, "span explain: %s (1-in-%d sampling, %d spans retained, %d dropped)\n",
		d.Workload, d.SampleEvery, len(d.Spans), d.Dropped)
	if len(d.Spans) == 0 {
		_, err := fmt.Fprintln(w, "no spans recorded")
		return err
	}
	for _, ae := range Explain(d.Spans) {
		name := obs.UnattributedName
		if ae.Atom != core.InvalidAtom {
			name = fmt.Sprintf("atom %d", ae.Atom)
			if ae.Name != "" {
				name = fmt.Sprintf("atom %s (%d)", ae.Name, ae.Atom)
			}
		}
		fmt.Fprintf(w, "\n%s — %d spans, %d total cycles, p50 %d p95 %d p99 %d\n",
			name, ae.Count, ae.TotalCycles, ae.P50, ae.P95, ae.P99)
		paths := ae.Paths
		if topPaths > 0 && len(paths) > topPaths {
			paths = paths[:topPaths]
		}
		for _, p := range paths {
			fmt.Fprintf(w, "  %6d× p50 %-6d p95 %-6d %s\n", p.Count, p.P50, p.P95, p.Path)
		}
		if n := len(ae.Paths) - len(paths); n > 0 {
			fmt.Fprintf(w, "  … %d more paths\n", n)
		}
	}
	return nil
}
