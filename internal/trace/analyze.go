package trace

import (
	"sort"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// Profile is the analyzer's view of a trace: the dynamic profiling channel
// of §3.5.1 — when neither the programmer nor the compiler expresses atoms,
// a profiler can derive attributes from an observed execution and emit the
// same atom segment.
type Profile struct {
	Sites   []SiteProfile
	Regions []RegionProfile
}

// SiteProfile characterizes one static access site.
type SiteProfile struct {
	Site     int32
	Accesses uint64
	Stores   uint64
	// DominantStride is the most frequent address delta between
	// consecutive accesses from this site; Regularity is the fraction of
	// deltas matching it.
	DominantStride int64
	Regularity     float64
}

// RegionProfile characterizes one allocated region.
type RegionProfile struct {
	Name      string
	Atom      core.AtomID
	SizeBytes uint64
	Accesses  uint64
	Stores    uint64
	// DistinctLines is the touched footprint in lines.
	DistinctLines uint64
	// DominantStride/Regularity describe consecutive same-region deltas.
	DominantStride int64
	Regularity     float64
	// RepeatablePattern is true when the region's full access sequence
	// repeats (wraps), distinguishing IRREGULAR from NON_DET.
	RepeatablePattern bool
}

// ReuseFactor is the mean number of times each touched line is accessed.
func (r RegionProfile) ReuseFactor() float64 {
	if r.DistinctLines == 0 {
		return 0
	}
	return float64(r.Accesses) / float64(r.DistinctLines)
}

// regularityThreshold: above this fraction of matching deltas, a region is
// REGULAR.
const regularityThreshold = 0.7

// InferAttributes derives atom attributes for the region, the way a
// profiling pass would populate the atom segment (§3.5.1).
func (r RegionProfile) InferAttributes(totalAccesses uint64) core.Attributes {
	attrs := core.Attributes{}
	switch {
	case r.Regularity >= regularityThreshold && r.DominantStride != 0:
		attrs.Pattern = core.PatternRegular
		attrs.StrideBytes = r.DominantStride
	case r.RepeatablePattern:
		attrs.Pattern = core.PatternIrregular
	default:
		attrs.Pattern = core.PatternNonDet
	}
	switch {
	case r.Stores == 0:
		attrs.RW = core.ReadOnly
	case r.Stores == r.Accesses:
		attrs.RW = core.WriteOnly
	default:
		attrs.RW = core.ReadWrite
	}
	if totalAccesses > 0 {
		share := float64(r.Accesses) / float64(totalAccesses)
		attrs.Intensity = uint8(255 * share)
	}
	// Reuse on the paper's relative 0-255 scale: 1 access per line means
	// none; saturate around 64 accesses per line.
	reuse := (r.ReuseFactor() - 1) * 4
	if reuse < 0 {
		reuse = 0
	}
	if reuse > 255 {
		reuse = 255
	}
	attrs.Reuse = uint8(reuse)
	return attrs
}

// analyzeDeltas finds the dominant stride in a delta histogram.
func analyzeDeltas(deltas map[int64]uint64, total uint64) (int64, float64) {
	var best int64
	var bestN uint64
	for d, n := range deltas {
		if n > bestN {
			best, bestN = d, n
		}
	}
	if total == 0 {
		return 0, 0
	}
	return best, float64(bestN) / float64(total)
}

// Analyze profiles a trace.
func Analyze(t *Trace) Profile {
	type siteState struct {
		prof   SiteProfile
		last   uint64
		seen   bool
		deltas map[int64]uint64
	}
	type regionState struct {
		prof   RegionProfile
		base   uint64
		end    uint64
		last   uint64
		seen   bool
		deltas map[int64]uint64
		lines  map[uint64]bool
		// sequence fingerprinting for repeatability: hash of the first
		// pass compared against later passes.
		firstPass  []uint64
		passCursor int
		repeats    bool
		checked    uint64
	}

	sites := map[int32]*siteState{}
	var regions []*regionState
	recorded := newLayout()

	findRegion := func(addr uint64) *regionState {
		for _, r := range regions {
			if addr >= r.base && addr < r.end {
				return r
			}
		}
		return nil
	}

	const fingerprintLen = 256
	for _, e := range t.Events {
		switch e.Kind {
		case EvMalloc:
			base := uint64(recorded.place(e.Addr))
			r := &regionState{
				prof: RegionProfile{
					Name: e.Name, Atom: core.AtomID(e.Site), SizeBytes: e.Addr,
				},
				base:   base,
				end:    base + e.Addr,
				deltas: map[int64]uint64{},
				lines:  map[uint64]bool{},
			}
			regions = append(regions, r)
		case EvLoad, EvStore:
			s := sites[e.Site]
			if s == nil {
				s = &siteState{deltas: map[int64]uint64{}}
				s.prof.Site = e.Site
				sites[e.Site] = s
			}
			s.prof.Accesses++
			if e.Kind == EvStore {
				s.prof.Stores++
			}
			if s.seen {
				s.deltas[int64(e.Addr)-int64(s.last)]++
			}
			s.last, s.seen = e.Addr, true

			if r := findRegion(e.Addr); r != nil {
				r.prof.Accesses++
				if e.Kind == EvStore {
					r.prof.Stores++
				}
				r.lines[e.Addr>>mem.LineShift] = true
				if r.seen {
					r.deltas[int64(e.Addr)-int64(r.last)]++
				}
				r.last, r.seen = e.Addr, true
				// Repeatability: record the first fingerprintLen
				// accesses; afterwards, check whether the sequence
				// re-appears in order.
				if len(r.firstPass) < fingerprintLen {
					r.firstPass = append(r.firstPass, e.Addr)
				} else if r.passCursor < len(r.firstPass) {
					if e.Addr == r.firstPass[r.passCursor] {
						r.passCursor++
						if r.passCursor == len(r.firstPass) {
							r.repeats = true
						}
					} else if e.Addr == r.firstPass[0] {
						r.passCursor = 1
					} else {
						r.passCursor = 0
					}
					r.checked++
				}
			}
		}
	}

	p := Profile{}
	for _, s := range sites {
		n := s.prof.Accesses
		if n > 1 {
			s.prof.DominantStride, s.prof.Regularity = analyzeDeltas(s.deltas, n-1)
		}
		p.Sites = append(p.Sites, s.prof)
	}
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].Site < p.Sites[j].Site })
	for _, r := range regions {
		r.prof.DistinctLines = uint64(len(r.lines))
		if r.prof.Accesses > 1 {
			r.prof.DominantStride, r.prof.Regularity = analyzeDeltas(r.deltas, r.prof.Accesses-1)
		}
		r.prof.RepeatablePattern = r.repeats
		p.Regions = append(p.Regions, r.prof)
	}
	return p
}

// TotalAccesses sums region accesses.
func (p Profile) TotalAccesses() uint64 {
	var n uint64
	for _, r := range p.Regions {
		n += r.Accesses
	}
	return n
}

// InferAtoms emits profiler-derived atoms for every region, ready to be
// encoded into an atom segment.
func (p Profile) InferAtoms() []core.Atom {
	total := p.TotalAccesses()
	atoms := make([]core.Atom, 0, len(p.Regions))
	for i, r := range p.Regions {
		atoms = append(atoms, core.Atom{
			ID:    core.AtomID(i),
			Name:  "profiled." + r.Name,
			Attrs: r.InferAttributes(total),
		})
	}
	return atoms
}
