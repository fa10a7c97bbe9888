package sim

import (
	"fmt"

	xm "xmem/internal/core"
	"xmem/internal/workload"
)

// InferSample is the memory-system health of one InferSmoke run.
type InferSample struct {
	Cycles uint64
	// L3HitRate is demand hits / (hits + misses) at the L3.
	L3HitRate float64
	// DRAMRowHits is the absolute row-hit count; RowHitRate the fraction
	// of row-buffer outcomes that hit. The rate is the comparable number:
	// a better-cached run issues fewer DRAM accesses, so the absolute
	// count can legitimately fall while locality improves.
	DRAMRowHits uint64
	RowHitRate  float64
}

// InferSmokeResult is the differential validation the attrinfer pipeline
// hangs its last acceptance check on: the same workload run twice on the
// same machine, once with every declared Attributes zeroed (the
// unannotated binary attrinfer starts from) and once with the declarations
// intact (the binary after `xmem-vet -fix` applied the inferred summary).
// If expressing the inferred semantics made the memory system worse, the
// inference mis-steered a policy and must not ship.
type InferSmokeResult struct {
	Workload string
	// Stripped is the run with attributes zeroed; Declared with them kept.
	Stripped, Declared InferSample
}

// Pass reports the acceptance condition: declaring the attributes must not
// make the memory system worse. "Worse" is losing on BOTH headline
// metrics: the L3 hit rate may legitimately drop when the attributes
// steer low-reuse atoms to bypass the cache — the paper's design point —
// but then end-to-end cycles must not regress. A true mis-steer (wrong
// pattern, wrong RW) loses both. (Row-buffer locality is reported for
// inspection but not gated: its absolute counts shrink when caching
// improves.)
func (r InferSmokeResult) Pass() bool {
	return r.Declared.L3HitRate >= r.Stripped.L3HitRate ||
		r.Declared.Cycles <= r.Stripped.Cycles
}

func (r InferSmokeResult) String() string {
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-12s stripped: L3 %5.1f%% rowhit %5.1f%% cycles %d   declared: L3 %5.1f%% rowhit %5.1f%% cycles %d   %s",
		r.Workload,
		100*r.Stripped.L3HitRate, 100*r.Stripped.RowHitRate, r.Stripped.Cycles,
		100*r.Declared.L3HitRate, 100*r.Declared.RowHitRate, r.Declared.Cycles,
		verdict)
}

// InferSmoke runs w twice on cfg — attributes stripped, then declared —
// and returns the comparison. cfg should enable the XMem-guided policies
// (XMemCache, AllocXMemPlacement) or the attributes cannot matter.
func InferSmoke(cfg Config, w workload.Workload) (InferSmokeResult, error) {
	sample := func(w workload.Workload) (InferSample, error) {
		r, err := Run(cfg, w)
		if err != nil {
			return InferSample{}, err
		}
		s := InferSample{
			Cycles:      r.Cycles,
			DRAMRowHits: r.DRAM.RowHits,
			RowHitRate:  r.DRAM.RowHitRate(),
		}
		if total := r.L3.Hits + r.L3.Misses; total > 0 {
			s.L3HitRate = float64(r.L3.Hits) / float64(total)
		}
		return s, nil
	}
	out := InferSmokeResult{Workload: w.Name}
	var err error
	if out.Stripped, err = sample(unannotated(w)); err != nil {
		return out, err
	}
	if out.Declared, err = sample(w); err != nil {
		return out, err
	}
	return out, nil
}

// unannotated models the binary attrinfer starts from: a copy of w whose
// Declare re-creates every declared site, in ID order, with zero
// Attributes. The machine sees the same atom IDs and names with no
// expressed semantics, so XMem-guided policies fall back to neutral
// behaviour. Run's CreateAtom calls still pass the declared attributes,
// which core.Lib ignores on a repeat site.
func unannotated(w workload.Workload) workload.Workload {
	declare := w.Declare
	if declare == nil {
		return w
	}
	w.Declare = func(lib *xm.Lib) {
		decl := xm.NewLib(nil)
		declare(decl)
		for _, a := range decl.Atoms() {
			lib.CreateAtom(a.Name, xm.Attributes{})
		}
	}
	return w
}
