package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// AttrInfer runs the shared symeval core (symeval.go) in *forward* mode:
// instead of disproving a declaration the way attrtruth does, it derives
// the provable access summary of every Malloc'd structure — read/write
// mix, affine stride at cache-line granularity, regular vs irregular
// pattern, per-loop-trip reuse, and (when loop bounds fold) the accessed
// byte range — and compares that summary against the declared
// core.Attributes, or against the absence of any atom (a Malloc tagged
// core.InvalidAtom). Where the inference is strictly stronger than the
// declaration, it reports a finding carrying a machine-applicable
// suggested fix: exact byte-offset edits that rewrite every CreateAtom
// literal of the site, or splice a new CreateAtom call into an untagged
// Malloc. xmem-vet -fix applies them; -fix-dry previews the diff.
//
// Inference is deliberately conservative — a wrong hint cannot break
// correctness (the interface is hint-based, §3.2), but it can mis-steer
// the policies the same way a wrong declaration does, so attrinfer only
// claims what it proves:
//
//   - Pattern is claimed only when the declaration says PatternNone (or no
//     atom exists) and every resolvable access agrees: all affine →
//     PatternRegular (with StrideBytes when all provable strides agree at
//     cache-line granularity); all provably non-affine → PatternIrregular.
//     One unresolvable access suppresses the pattern claim.
//   - StrideBytes alone is added when the site already declares
//     PatternRegular but left StrideBytes zero.
//   - RW is claimed only when the declaration says RWNone: ReadOnly and
//     WriteOnly additionally require that every access in the contributing
//     bodies resolved to *some* base (an unattributed Store could alias the
//     allocation); ReadWrite needs no such caveat.
//   - Intensity and Reuse are never inferred: they are relative,
//     cross-atom rankings the evaluator has no ordering for. The reuse and
//     range evidence still appears in the message as justification.
//
// The fix rewrites every CreateAtom call of the site (the runtime keys
// atoms by site string, and attrconflict demands the declarations agree),
// so a site declared through a shared package-level Attributes variable is
// never auto-edited — other sites may share the variable. Such sites,
// runtime-built attributes, and unresolvable bases produce no finding:
// every finding attrinfer emits comes with an applicable fix.
//
// A `//xmem:noinfer` comment on (or directly above) the Malloc or
// CreateAtom line suppresses inference for that site — for programs that
// are deliberately unannotated, like the profiling example that feeds the
// *dynamic* expression channel of §3.5.1 instead of the static one.
var AttrInfer = &Analyzer{
	Name: "attrinfer",
	Doc:  "declared Attributes (or missing atoms) provably weaker than the inferred access summary; fixes attached",
	Run:  runAttrInfer,
}

// inferredVal is one attribute value the inference wants declared. Enum
// values render with the core qualifier of the edited file.
type inferredVal struct {
	field string // "Pattern", "StrideBytes", "RW"
	enum  string // core enum constant name, or "" for a plain integer
	num   int64  // integer value when enum == ""
}

// attrFieldOrder is the declaration order of core.Attributes fields, used
// to render rewritten literals canonically.
var attrFieldOrder = []string{"Type", "Props", "Pattern", "StrideBytes", "RW", "Intensity", "Reuse", "Home"}

// inferEvidence aggregates the access summary of one atom site (or one
// untagged Malloc) across every function body of the module.
type inferEvidence struct {
	key    string
	noAtom bool
	fact   *baseFact // representative declaration

	// mallocPkg holds the untagged Malloc, fact.malloc (noAtom only).
	mallocPkg *Package

	loads, stores      int
	murk               int // accesses attributed to the base but unresolvable
	regular, irregular int
	loose              bool            // an affine access with unprovable stride
	strides            map[int64]int64 // line-canonical stride -> min raw stride
	reused             bool            // some access re-touches its address across inner trips

	minOff, maxOff int64
	rangeSet       bool // at least one access contributed provable bounds
	rangeOK        bool // every classified access had provable bounds
	classified     int

	// mayLoad/mayStore: a contributing body performed an access that did
	// not resolve to any base — it could alias this allocation.
	mayLoad, mayStore bool

	firstPos token.Pos
	bodies   map[*ast.BlockStmt]bool
}

func runAttrInfer(u *Unit) {
	sc := resolveSemConsts(u)
	if !sc.ok {
		return
	}
	idx := newFuncIndex(u)

	// The fix must rewrite every CreateAtom call of a site to keep
	// attrconflict quiet.
	sites := createSites(u)

	evidence := make(map[string]*inferEvidence)
	evidenceOf := func(bf *baseFact, pkg *Package) *inferEvidence {
		key := bf.attrs.site
		if bf.noAtom {
			key = "malloc@" + u.Fset.Position(bf.malloc.Pos()).String()
		}
		if key == "" {
			return nil // non-constant site string: nothing to match a fix against
		}
		ev := evidence[key]
		if ev == nil {
			ev = &inferEvidence{
				key: key, noAtom: bf.noAtom, fact: bf,
				strides: make(map[int64]int64), rangeOK: true,
				bodies: make(map[*ast.BlockStmt]bool),
			}
			if bf.noAtom {
				ev.mallocPkg = pkg
			}
			evidence[key] = ev
		}
		return ev
	}

	for _, pkg := range u.Packages {
		funcBodies(pkg, func(body *ast.BlockStmt) {
			inferScanBody(u, pkg, body, sc, idx, evidenceOf)
		})
	}

	noinfer := lineDirectives(u, "noinfer")

	keys := make([]string, 0, len(evidence))
	for k := range evidence {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	srcs := newSrcCache()
	for _, k := range keys {
		judgeSite(u, sc, evidence[k], sites, srcs, noinfer)
	}
}

// inferScanBody walks one body, seeds untagged Mallocs so the evaluator
// can attribute their accesses, and accumulates evidence.
func inferScanBody(u *Unit, pkg *Package, body *ast.BlockStmt, sc semConsts, idx *funcIndex,
	evidenceOf func(*baseFact, *Package) *inferEvidence) {

	facts := collectBodyFacts(u, pkg, body, func(f *bodyFacts) { seedNoAtomBases(pkg, f, sc) })

	quick := len(facts.bases) > 0 || len(facts.baseByCall) > 0
	if !quick {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isMallocCall(pkg.Info, call) {
				quick = true
			}
			return !quick
		})
		if !quick {
			return
		}
	}

	touched := make(map[*inferEvidence]bool)
	var aliasLoad, aliasStore bool

	walkAccesses(u, pkg, facts, idx, func(ctx *evalCtx, call *ast.CallExpr, sh *shape, store bool) {
		if sh.base == nil || sh.nbase != 1 {
			if store {
				aliasStore = true
			} else {
				aliasLoad = true
			}
			return
		}
		ev := evidenceOf(sh.base, pkg)
		if ev == nil {
			return
		}
		touched[ev] = true
		ev.bodies[body] = true
		if ev.firstPos == token.NoPos {
			ev.firstPos = call.Pos()
		}
		if store {
			ev.stores++
		} else {
			ev.loads++
		}
		if sh.bad {
			ev.murk++
			ev.rangeOK = false
			return
		}
		ac := classifyAccess(ctx, sh)
		if ac.inner == nil {
			// Loop-invariant address: re-touched every trip of every
			// enclosing loop; pattern-neutral.
			if len(ctx.loops) > 0 {
				ev.reused = true
			}
			if sh.constOnlyOffset() {
				recordRange(ev, sh.c, sh.c)
			} else {
				ev.rangeOK = false
			}
			return
		}
		ev.classified++
		if ac.innerDepth < len(ctx.loops)-1 {
			ev.reused = true // deeper loops re-touch the same address
		}
		switch ac.class {
		case classIrr:
			ev.irregular++
			ev.rangeOK = false
		case classLoose:
			ev.regular++
			ev.loose = true
			ev.rangeOK = false
		case classCoeff:
			ev.regular++
			if ac.strideOK && ac.stride > 0 {
				canon := sc.lineStride(ac.stride)
				if cur, ok := ev.strides[canon]; !ok || ac.stride < cur {
					ev.strides[canon] = ac.stride
				}
			} else {
				ev.loose = true
			}
			if ac.boundsOK {
				lo, hi := ac.first, ac.last
				if lo > hi {
					lo, hi = hi, lo
				}
				recordRange(ev, lo, hi)
			} else {
				ev.rangeOK = false
			}
		}
	})

	if aliasLoad || aliasStore {
		for ev := range touched {
			ev.mayLoad = ev.mayLoad || aliasLoad
			ev.mayStore = ev.mayStore || aliasStore
		}
	}
}

func recordRange(ev *inferEvidence, lo, hi int64) {
	if !ev.rangeSet {
		ev.minOff, ev.maxOff, ev.rangeSet = lo, hi, true
		return
	}
	if lo < ev.minOff {
		ev.minOff = lo
	}
	if hi > ev.maxOff {
		ev.maxOff = hi
	}
}

// seedNoAtomBases finds the body's own Mallocs whose atom argument folds to
// core.InvalidAtom and registers synthetic base facts for them, so
// walkAccesses attributes their accesses. It runs before collectBodyFacts
// binds defines, which then binds the locals these Mallocs initialize:
// such a Malloc never resolves through resolveMallocBase.
func seedNoAtomBases(pkg *Package, facts *bodyFacts, sc semConsts) {
	info := pkg.Info
	ast.Inspect(facts.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMallocCall(info, call) || len(call.Args) != 3 {
			return true
		}
		atom, okC := constInt64(info, call.Args[2])
		if !okC || atom != sc.invalidAtom {
			return true
		}
		bf := &baseFact{noAtom: true, malloc: call}
		bf.size, bf.sizeKnown = constUint64(info, call.Args[1])
		facts.baseByCall[call] = bf
		return true
	})
}

// judgeSite compares one site's evidence against its declaration and, when
// strictly stronger and fixable, reports with the machine-applicable fix.
func judgeSite(u *Unit, sc semConsts, ev *inferEvidence, sites map[string][]createSite, srcs *srcCache, noinfer *lineMarks) {
	if ev.loads+ev.stores == 0 {
		return
	}
	anchor := ev.fact.attrs.pos
	if ev.noAtom {
		anchor = ev.fact.malloc.Pos()
	} else if decls := sites[ev.fact.attrs.site]; len(decls) > 0 {
		anchor = decls[0].call.Pos()
	}
	if noinfer.exempts(u.Fset, anchor) {
		return
	}
	declPattern, declStride, declRW := int64(0), int64(0), int64(0)
	if !ev.noAtom {
		declPattern, declStride, declRW = ev.fact.attrs.pattern, ev.fact.attrs.stride, ev.fact.attrs.rw
	}

	var vals []inferredVal
	var claims []string

	// Pattern and stride.
	strideVal, strideUnique := int64(0), false
	if len(ev.strides) == 1 && !ev.loose {
		for _, raw := range ev.strides {
			strideVal, strideUnique = raw, true
		}
	}
	switch {
	case (ev.noAtom || declPattern == sc.patNone) && ev.regular > 0 && ev.irregular == 0 && ev.murk == 0:
		vals = append(vals, inferredVal{field: "Pattern", enum: "PatternRegular"})
		claim := fmt.Sprintf("all %d classified accesses are affine in their loops", ev.classified)
		if strideUnique {
			vals = append(vals, inferredVal{field: "StrideBytes", num: strideVal})
			claim += fmt.Sprintf(" with constant stride %dB at line granularity", strideVal)
		}
		claims = append(claims, claim+" -> PatternRegular")
	case (ev.noAtom || declPattern == sc.patNone) && ev.irregular > 0 && ev.regular == 0 && ev.murk == 0:
		vals = append(vals, inferredVal{field: "Pattern", enum: "PatternIrregular"})
		claims = append(claims, fmt.Sprintf("all %d classified accesses are provably non-affine in their loops -> PatternIrregular", ev.classified))
	case !ev.noAtom && declPattern == sc.patRegular && declStride == 0 && ev.murk == 0 && strideUnique && ev.irregular == 0:
		vals = append(vals, inferredVal{field: "StrideBytes", num: strideVal})
		claims = append(claims, fmt.Sprintf("declared PatternRegular but StrideBytes 0; every provable stride is %dB at line granularity -> StrideBytes %d", strideVal, strideVal))
	}

	// RW mix.
	if ev.noAtom || declRW == sc.rwNone {
		switch {
		case ev.loads > 0 && ev.stores == 0 && !ev.mayStore:
			vals = append(vals, inferredVal{field: "RW", enum: "ReadOnly"})
			claims = append(claims, fmt.Sprintf("%d loads and no store anywhere in the contributing bodies -> ReadOnly", ev.loads))
		case ev.stores > 0 && ev.loads == 0 && !ev.mayLoad:
			vals = append(vals, inferredVal{field: "RW", enum: "WriteOnly"})
			claims = append(claims, fmt.Sprintf("%d stores and no load anywhere in the contributing bodies -> WriteOnly", ev.stores))
		case ev.loads > 0 && ev.stores > 0:
			vals = append(vals, inferredVal{field: "RW", enum: "ReadWrite"})
			claims = append(claims, fmt.Sprintf("%d loads and %d stores -> ReadWrite", ev.loads, ev.stores))
		}
	}

	if len(vals) == 0 {
		return
	}

	// Supporting (non-claimed) evidence for the message.
	var extra []string
	if ev.rangeOK && ev.rangeSet && ev.murk == 0 {
		if ev.fact.sizeKnown {
			extra = append(extra, fmt.Sprintf("provable range [%d,%d] of %d allocated bytes", ev.minOff, ev.maxOff, ev.fact.size))
		} else {
			extra = append(extra, fmt.Sprintf("provable range [%d,%d] bytes", ev.minOff, ev.maxOff))
		}
	}
	if ev.reused {
		extra = append(extra, "addresses re-touched across inner loop trips (reuse; not auto-declared)")
	}
	detail := strings.Join(claims, "; ")
	if len(extra) > 0 {
		detail += " [" + strings.Join(extra, "; ") + "]"
	}

	if ev.noAtom {
		fix, ok := buildNoAtomFix(u, ev, vals, sites, srcs)
		if !ok {
			return
		}
		u.Report(Finding{
			Pos: u.Fset.Position(ev.fact.malloc.Pos()),
			Message: fmt.Sprintf("Malloc carries no atom (core.InvalidAtom), but its accesses prove a summary the memory system could use: %s; the suggested fix creates the atom",
				detail),
			SuggestedFixes: []SuggestedFix{fix},
		})
		return
	}

	decls := sites[ev.fact.attrs.site]
	fix, ok := buildLiteralFix(u, ev, vals, decls, srcs)
	if !ok {
		return
	}
	pos := decls[0].call.Pos()
	u.Report(Finding{
		Pos: u.Fset.Position(pos),
		Message: fmt.Sprintf("atom %q declares weaker semantics than its accesses prove: %s; the suggested fix strengthens %d CreateAtom site(s)",
			ev.fact.attrs.site, detail, len(decls)),
		SuggestedFixes: []SuggestedFix{fix},
	})
}

// --- fix construction ---

// srcCache reads and caches file contents for offset-exact edits.
type srcCache struct{ files map[string][]byte }

func newSrcCache() *srcCache { return &srcCache{files: make(map[string][]byte)} }

func (s *srcCache) get(file string) ([]byte, bool) {
	if src, ok := s.files[file]; ok {
		return src, src != nil
	}
	src, err := os.ReadFile(file)
	if err != nil {
		s.files[file] = nil
		return nil, false
	}
	s.files[file] = src
	return src, true
}

// exprText returns the source text of e, byte-exact from the file.
func (s *srcCache) exprText(fset *token.FileSet, e ast.Expr) (string, bool) {
	start, end := fset.Position(e.Pos()), fset.Position(e.End())
	src, ok := s.get(start.Filename)
	if !ok || end.Offset > len(src) || start.Offset > end.Offset {
		return "", false
	}
	return string(src[start.Offset:end.Offset]), true
}

// renderVal renders one inferred value with the given core qualifier
// ("core." or "" for a dot/same-package context).
func renderVal(v inferredVal, qual string) string {
	if v.enum != "" {
		return qual + v.enum
	}
	return fmt.Sprintf("%d", v.num)
}

// coreQualifier derives the selector prefix used for core enum constants
// from an existing Attributes literal's type expression.
func coreQualifier(lit *ast.CompositeLit) string {
	if sel, ok := lit.Type.(*ast.SelectorExpr); ok {
		if id, okID := sel.X.(*ast.Ident); okID {
			return id.Name + "."
		}
	}
	return ""
}

// buildLiteralFix rewrites every CreateAtom literal of the site: present
// fields keep their source text, inferred fields are set, and the whole
// literal is re-rendered single-line in canonical field order. Fails (no
// finding) when any declaration is not an editable inline literal.
func buildLiteralFix(u *Unit, ev *inferEvidence, vals []inferredVal, decls []createSite, srcs *srcCache) (SuggestedFix, bool) {
	if len(decls) == 0 {
		return SuggestedFix{}, false
	}
	var fix SuggestedFix
	var parts []string
	for _, v := range vals {
		parts = append(parts, fmt.Sprintf("%s: %s", v.field, renderVal(v, "")))
	}
	fix.Message = fmt.Sprintf("declare %s at %d CreateAtom site(s) of %q", strings.Join(parts, ", "), len(decls), ev.fact.attrs.site)

	for _, d := range decls {
		if d.lit == nil {
			return SuggestedFix{}, false
		}
		text, ok := renderAttrLiteral(u, d, vals, srcs)
		if !ok {
			return SuggestedFix{}, false
		}
		start := u.Fset.Position(d.lit.Pos())
		end := u.Fset.Position(d.lit.End())
		if cur, okSrc := srcs.exprText(u.Fset, d.lit); okSrc && cur == text {
			continue // this declaration already says it
		}
		fix.Edits = append(fix.Edits, TextEdit{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: text,
		})
	}
	if len(fix.Edits) == 0 {
		return SuggestedFix{}, false
	}
	return fix, true
}

// renderAttrLiteral renders d.lit with the inferred values folded in,
// single-line, fields in declaration order. Fails on positional literals
// and non-identifier keys.
func renderAttrLiteral(u *Unit, d createSite, vals []inferredVal, srcs *srcCache) (string, bool) {
	lit := d.lit
	qual := coreQualifier(lit)
	existing := make(map[string]string)
	order := make(map[string]int, len(attrFieldOrder))
	for i, n := range attrFieldOrder {
		order[n] = i
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return "", false // positional literal: field meaning depends on count
		}
		key, okK := kv.Key.(*ast.Ident)
		if !okK {
			return "", false
		}
		if _, known := order[key.Name]; !known {
			return "", false
		}
		text, okT := srcs.exprText(u.Fset, kv.Value)
		if !okT {
			return "", false
		}
		existing[key.Name] = strings.TrimSpace(text)
	}
	for _, v := range vals {
		existing[v.field] = renderVal(v, qual)
	}
	typeText, okTy := srcs.exprText(u.Fset, lit.Type)
	if !okTy {
		return "", false
	}
	var fields []string
	for _, name := range attrFieldOrder {
		if val, ok := existing[name]; ok {
			fields = append(fields, fmt.Sprintf("%s: %s", name, val))
		}
	}
	return typeText + "{" + strings.Join(fields, ", ") + "}", true
}

// buildNoAtomFix replaces the core.InvalidAtom argument of an untagged
// Malloc with an inline CreateAtom carrying the inferred attributes. The
// receiver must expose Lib() *core.Lib, the Malloc name must be constant
// (it becomes the site suffix), and the synthesized site must be new.
func buildNoAtomFix(u *Unit, ev *inferEvidence, vals []inferredVal, sites map[string][]createSite, srcs *srcCache) (SuggestedFix, bool) {
	call, pkg := ev.fact.malloc, ev.mallocPkg
	if call == nil || pkg == nil {
		return SuggestedFix{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return SuggestedFix{}, false
	}
	recvT := pkg.Info.Types[sel.X].Type
	if recvT == nil || !hasLibMethod(recvT) {
		return SuggestedFix{}, false
	}
	name, okName := constString(pkg.Info, call.Args[0])
	if !okName || name == "" {
		return SuggestedFix{}, false
	}
	site := pkg.Types.Name() + "." + name
	if _, taken := sites[site]; taken {
		return SuggestedFix{}, false // site string already claimed by real declarations
	}
	qual, okQ := corePkgQualifier(u, pkg, call.Pos())
	if !okQ {
		return SuggestedFix{}, false
	}
	var recvBuf strings.Builder
	if err := printer.Fprint(&recvBuf, u.Fset, sel.X); err != nil {
		return SuggestedFix{}, false
	}
	if _, isIdent := ast.Unparen(sel.X).(*ast.Ident); !isIdent {
		return SuggestedFix{}, false // only duplicate side-effect-free receivers
	}
	var fields []string
	for _, fname := range attrFieldOrder {
		for _, v := range vals {
			if v.field == fname {
				fields = append(fields, fmt.Sprintf("%s: %s", fname, renderVal(v, qual)))
			}
		}
	}
	newText := fmt.Sprintf("%s.Lib().CreateAtom(%q, %sAttributes{%s})",
		recvBuf.String(), site, qual, strings.Join(fields, ", "))
	start := u.Fset.Position(call.Args[2].Pos())
	end := u.Fset.Position(call.Args[2].End())
	return SuggestedFix{
		Message: fmt.Sprintf("create atom %q with %d inferred attribute(s) at the Malloc", site, len(vals)),
		Edits: []TextEdit{{
			File:    start.Filename,
			Start:   start.Offset,
			End:     end.Offset,
			NewText: newText,
		}},
	}, true
}

// hasLibMethod reports whether t (or *t) has a Lib() *core.Lib method.
func hasLibMethod(t types.Type) bool {
	check := func(ms *types.MethodSet) bool {
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok || fn.Name() != "Lib" {
				continue
			}
			sig, okSig := fn.Type().(*types.Signature)
			if okSig && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				isNamedIn(sig.Results().At(0).Type(), "Lib", "internal/core") {
				return true
			}
		}
		return false
	}
	if check(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return check(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

// corePkgQualifier finds how the file containing pos refers to
// internal/core: "core." for a named import, "" for a dot import; fails
// when the package is not imported (the fix could not compile).
func corePkgQualifier(u *Unit, pkg *Package, pos token.Pos) (string, bool) {
	file := fileOf(u, pkg, pos)
	if file == nil {
		return "", false
	}
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if !strings.HasSuffix(path, "internal/core") {
			continue
		}
		if imp.Name == nil {
			return "core.", true
		}
		switch imp.Name.Name {
		case ".":
			return "", true
		case "_":
			continue
		default:
			return imp.Name.Name + ".", true
		}
	}
	return "", false
}

// fileOf returns the *ast.File of pkg containing pos.
func fileOf(u *Unit, pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
