package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// AttrTruth reports provable contradictions between the semantics an atom
// *declares* at CreateAtom (Pattern / StrideBytes / RW in core.Attributes)
// and the way the same function body provably *accesses* the data tagged
// with that atom. The paper's policies (§5 cache pinning, §6 DRAM
// placement) steer on declarations alone, so a wrong declaration silently
// mis-steers the hierarchy; this analyzer is the compile-time cross-check
// (cf. the Locality Descriptor's compiler pass, PAPERS.md).
//
// The analysis works per function body, on the shared symeval core (see
// symeval.go): it resolves atoms whose attributes fold to a constant
// core.Attributes literal, associates Program.Malloc results (plain
// address variables and struct fields like workload.mat) with those atoms,
// and symbolically evaluates every Program.Load/Store address against the
// enclosing loop nest — inlining small single-return helpers (addrOf,
// mat.at, hash-style closures) so the common kernel idioms resolve. Five
// contradiction classes are provable:
//
//   - a Store into an atom declared core.ReadOnly (and the dual, a Load
//     from a core.WriteOnly atom);
//   - a constant access stride that contradicts the declared StrideBytes
//     (strides at or below one cache line are all "sequential line-by-line"
//     to the hierarchy, so two strides conflict only when they disagree at
//     line granularity);
//   - an index that is a provably non-affine function of a loop induction
//     variable (%, shifts, masked mixing, data-dependent hash values) on an
//     atom declared PatternRegular;
//   - an atom declared PatternIrregular whose every resolvable access in
//     the body is affine constant-stride (PatternRegular + StrideBytes
//     would steer the prefetcher better);
//   - an access at a provably constant offset outside the bytes the atom's
//     Malloc tagged — the load or store touches memory the atom never
//     covered.
//
// Everything it cannot prove it leaves alone: unresolved bases, symbolic
// strides, accesses through helpers it cannot inline, and attributes built
// at runtime produce no findings. The runtime core.InvariantChecker and the
// per-atom observability counters cover those dynamic cases. The dual,
// forward direction — deriving a *stronger* declaration than the one
// written and proposing it as a fix — is attrinfer (attrinfer.go).
var AttrTruth = &Analyzer{
	Name: "attrtruth",
	Doc:  "declared Attributes (Pattern/StrideBytes/RW) contradicted by provable access shapes",
	Run:  runAttrTruth,
}

// atomEvidence accumulates per-site access-shape evidence over one body.
type atomEvidence struct {
	fact                     *baseFact
	regular, irregular, murk int // resolved-affine, provably-non-affine, unresolvable
	firstRegular             token.Pos
}

func runAttrTruth(u *Unit) {
	sc := resolveSemConsts(u)
	if !sc.ok {
		return
	}
	idx := newFuncIndex(u)
	for _, pkg := range u.Packages {
		funcBodies(pkg, func(body *ast.BlockStmt) {
			truthCheckBody(u, pkg, body, sc, idx)
		})
	}
}

// --- the body check ---

func truthCheckBody(u *Unit, pkg *Package, body *ast.BlockStmt, sc semConsts, idx *funcIndex) {
	facts := collectBodyFacts(u, pkg, body, nil)
	if len(facts.atoms) == 0 && len(facts.bases) == 0 {
		// Cheap pre-check: nothing in this body resolves, so no access can.
		quick := false
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if isMallocCall(pkg.Info, call) {
					quick = true
				}
			}
			return !quick
		})
		if !quick {
			return
		}
	}

	evidence := make(map[string]*atomEvidence)
	evidenceOf := func(bf *baseFact) *atomEvidence {
		key := bf.attrs.site
		if key == "" {
			key = u.Fset.Position(bf.attrs.pos).String()
		}
		ev := evidence[key]
		if ev == nil {
			ev = &atomEvidence{fact: bf}
			evidence[key] = ev
		}
		return ev
	}

	walkAccesses(u, pkg, facts, idx, func(ctx *evalCtx, call *ast.CallExpr, sh *shape, store bool) {
		if sh.base == nil || sh.nbase != 1 {
			return
		}
		checkAccess(u, sc, ctx, evidenceOf(sh.base), call, sh, store)
	})

	// Verdict pass: an atom declared PatternIrregular whose every
	// resolvable access in this body is affine constant-stride.
	keys := make([]string, 0, len(evidence))
	for k := range evidence {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ev := evidence[k]
		a := ev.fact.attrs
		if a.pattern == sc.patIrregular && ev.regular > 0 && ev.irregular == 0 && ev.murk == 0 {
			u.Reportf(ev.firstRegular,
				"atom %q declares PatternIrregular, but every resolvable access in this function is affine constant-stride; declare PatternRegular with StrideBytes so the prefetcher and DRAM policies can exploit it",
				a.site)
		}
	}
}

// checkAccess judges one resolved Load/Store shape against the atom's
// declaration and records pattern evidence.
func checkAccess(u *Unit, sc semConsts, ctx *evalCtx, ev *atomEvidence, call *ast.CallExpr, sh *shape, store bool) {
	a := ev.fact.attrs
	pos := call.Pos()

	// RW contract: declarations are creation-time promises.
	if store && a.rw == sc.readOnly {
		u.Reportf(pos, "Store into atom %q declared ReadOnly: RW is a creation-time promise the cache pins on (§3.3); declare ReadWrite or drop the store", a.site)
	}
	if !store && a.rw == sc.writeOnly {
		u.Reportf(pos, "Load from atom %q declared WriteOnly: declare ReadWrite or ReadOnly so the declared RW characteristic matches the access", a.site)
	}

	if sh.bad {
		ev.murk++
		return
	}

	// Out-of-allocation: a constant offset outside the bytes the atom's
	// Malloc tagged ("unmapped-range" — no byte of this access was ever
	// mapped to the atom).
	if ev.fact.sizeKnown && sh.constOnlyOffset() {
		if sh.c < 0 || uint64(sh.c) >= ev.fact.size {
			u.Reportf(pos, "access at constant offset %d is outside the %d bytes tagged to atom %q: no byte of this address was ever mapped to the atom", sh.c, ev.fact.size, a.site)
			return
		}
	}

	// Pattern evidence comes from the innermost enclosing loop whose
	// induction variable participates in the offset.
	ac := classifyAccess(ctx, sh)
	if ac.inner == nil {
		return // loop-invariant address: no pattern evidence either way
	}

	switch ac.class {
	case classIrr:
		ev.irregular++
		if a.pattern == sc.patRegular {
			u.Reportf(pos, "index is a provably non-affine function of loop variable %q, but atom %q declares PatternRegular (stride %dB): declare PatternIrregular or fix the indexing", ac.inner.Name(), a.site, a.stride)
		}
	case classLoose:
		ev.regular++
		if ev.firstRegular == token.NoPos {
			ev.firstRegular = pos
		}
	case classCoeff:
		ev.regular++
		if ev.firstRegular == token.NoPos {
			ev.firstRegular = pos
		}
		if !ac.strideOK {
			return
		}
		if a.pattern == sc.patRegular && a.stride > 0 && ac.stride > 0 {
			if sc.lineStride(ac.stride) != sc.lineStride(a.stride) {
				u.Reportf(pos, "constant access stride %dB contradicts atom %q's declared StrideBytes=%d (strides only agree when equal or both within one %dB cache line)", ac.stride, a.site, a.stride, sc.lineBytes)
			}
		}
		// Affine out-of-allocation: with constant loop bounds the first
		// and last touched offsets are provable; either outside the
		// allocation is the same unmapped-range contradiction.
		if ev.fact.sizeKnown && ac.boundsOK {
			for _, off := range []int64{ac.first, ac.last} {
				if off < 0 || uint64(off) >= ev.fact.size {
					u.Reportf(pos, "loop over %q reaches constant offset %d, outside the %d bytes tagged to atom %q: no byte of that address was ever mapped to the atom", ac.inner.Name(), off, ev.fact.size, a.site)
					return
				}
			}
		}
	}
}
