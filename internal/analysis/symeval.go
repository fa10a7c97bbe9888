package analysis

// This file is the shared symbolic-evaluation core ("symeval") behind the
// semantic-truth analyzers. attrtruth runs it in *reverse* mode (disprove a
// declared Attributes against the provable access shape) and attrinfer runs
// it in *forward* mode (derive the provable access summary and propose a
// stronger declaration). Both need exactly the same machinery:
//
//   - resolution of CreateAtom attribute literals and Malloc→atom
//     association (collectBodyFacts, resolveAttrs, resolveMallocBase);
//   - the symbolic decomposition of address expressions against the
//     enclosing loop nest (shape, evalCtx), including inlining of small
//     helpers, struct-literal-bound methods, and single-assignment
//     function literals;
//   - loop-nest walking with induction-variable extraction (walkAccesses,
//     parseLoop, loopFrame);
//   - classification of one resolved access against its loop nest
//     (classifyAccess): innermost participating induction variable,
//     affine/loose/non-affine class, provable constant stride, and — when
//     the loop bounds fold — the first and last touched byte offsets.
//
// Everything here proves or gives up; nothing guesses. The analyzers own
// the judgement (contradiction vs. strengthening), this file owns the
// evidence.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// semConsts holds the enum values and geometry constants resolved from the
// loaded internal/core and internal/mem packages, so no analyzer ever
// hard-codes them.
type semConsts struct {
	patNone, patRegular, patIrregular int64
	rwNone, readOnly, readWrite       int64
	writeOnly                         int64
	invalidAtom                       int64
	lineBytes                         int64
	ok                                bool
}

// resolveSemConsts pulls the constants the checks compare against out of
// the type-checked module (internal/core enums, internal/mem.LineBytes).
func resolveSemConsts(u *Unit) semConsts {
	var sc semConsts
	get := func(pkgSuffix, name string) (int64, bool) {
		for _, pkg := range u.Packages {
			for _, tp := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
				if !strings.HasSuffix(tp.Path(), pkgSuffix) {
					continue
				}
				c, ok := tp.Scope().Lookup(name).(*types.Const)
				if !ok {
					continue
				}
				v, exact := constant.Int64Val(constant.ToInt(c.Val()))
				if exact {
					return v, true
				}
			}
		}
		return 0, false
	}
	var ok [9]bool
	sc.patNone, ok[0] = get("internal/core", "PatternNone")
	sc.patRegular, ok[1] = get("internal/core", "PatternRegular")
	sc.patIrregular, ok[2] = get("internal/core", "PatternIrregular")
	sc.rwNone, ok[3] = get("internal/core", "RWNone")
	sc.readOnly, ok[4] = get("internal/core", "ReadOnly")
	sc.readWrite, ok[5] = get("internal/core", "ReadWrite")
	sc.writeOnly, ok[6] = get("internal/core", "WriteOnly")
	sc.invalidAtom, ok[7] = get("internal/core", "InvalidAtom")
	sc.lineBytes, ok[8] = get("internal/mem", "LineBytes")
	sc.ok = true
	for _, o := range ok {
		sc.ok = sc.ok && o
	}
	return sc
}

// attrFacts is the declaration of one resolved atom.
type attrFacts struct {
	site    string // CreateAtom site string ("" when not constant)
	pattern int64
	stride  int64
	rw      int64
	pos     token.Pos // the CreateAtom call
}

// baseFact associates one Malloc result with its atom declaration.
type baseFact struct {
	attrs     attrFacts
	size      uint64 // allocation size in bytes
	sizeKnown bool
	// noAtom marks a Malloc tagged core.InvalidAtom: the allocation carries
	// no semantics at all. Only attrinfer seeds such bases (seedNoAtomBases);
	// attrtruth never sees them.
	noAtom bool
	// malloc is the Malloc call (for reporting on, and fixing, no-atom
	// bases).
	malloc *ast.CallExpr
}

// --- function index (for inlining) ---

// funcIndex maps type-checker function objects to their declarations so the
// evaluator can inline small helpers across packages.
type funcIndex struct {
	decls map[*types.Func]funcDecl
}

type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

func newFuncIndex(u *Unit) *funcIndex {
	idx := &funcIndex{decls: make(map[*types.Func]funcDecl)}
	for _, pkg := range u.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.decls[fn] = funcDecl{decl: fd, pkg: pkg}
				}
			}
		}
	}
	return idx
}

// --- per-body fact collection ---

// bodyFacts is everything the evaluator proves about one function body
// before the analyzers judge its accesses.
type bodyFacts struct {
	pkg        *Package
	body       *ast.BlockStmt
	locals     *localIndex
	atoms      map[*types.Var]*attrFacts        // lib.CreateAtom results
	bases      map[*types.Var]*baseFact         // p.Malloc results
	structs    map[*types.Var]*ast.CompositeLit // single-assigned struct literals
	baseByCall map[*ast.CallExpr]*baseFact      // Malloc calls evaluated in place
}

// collectBodyFacts indexes the body's local writes, then binds the atom,
// base and struct-literal variables of its own single-write := defines, in
// source order. seed, when non-nil, runs in between and may register more
// Malloc bases in baseByCall (attrinfer's seedNoAtomBases), whose defined
// locals are then bound as well.
func collectBodyFacts(u *Unit, pkg *Package, body *ast.BlockStmt, seed func(*bodyFacts)) *bodyFacts {
	f := &bodyFacts{
		pkg:        pkg,
		body:       body,
		locals:     indexLocals(pkg.Info, body),
		atoms:      make(map[*types.Var]*attrFacts),
		bases:      make(map[*types.Var]*baseFact),
		structs:    make(map[*types.Var]*ast.CompositeLit),
		baseByCall: make(map[*ast.CallExpr]*baseFact),
	}
	if seed != nil {
		seed(f)
	}
	for _, obj := range f.locals.order {
		w, ok := f.locals.vars[obj].sole()
		if !ok || w.kind != writeDefine || w.inLit || w.rhs == nil {
			continue
		}
		switch rhs := w.rhs.(type) {
		case *ast.CallExpr:
			if create := createAtomCall(pkg.Info, rhs); create != nil {
				if facts, okA := resolveAttrs(u, pkg, create); okA {
					f.atoms[obj] = facts
				}
			}
			if isMallocCall(pkg.Info, rhs) {
				if bf := f.resolveMallocBase(u, rhs); bf != nil {
					f.bases[obj] = bf
				}
			}
		case *ast.CompositeLit:
			if tv, okTV := pkg.Info.Types[rhs]; okTV && tv.Type != nil {
				if _, okStruct := tv.Type.Underlying().(*types.Struct); okStruct {
					f.structs[obj] = rhs
				}
			}
		}
	}
	return f
}

// resolveMallocBase resolves the atom argument of a Malloc call to its
// declared attributes, yielding the base fact for the returned address.
func (f *bodyFacts) resolveMallocBase(u *Unit, call *ast.CallExpr) *baseFact {
	if bf, ok := f.baseByCall[call]; ok {
		return bf
	}
	if len(call.Args) != 3 {
		return nil
	}
	var facts *attrFacts
	atomArg := ast.Unparen(call.Args[2])
	if id, ok := atomArg.(*ast.Ident); ok {
		obj, _ := f.pkg.Info.Uses[id].(*types.Var)
		facts = f.atoms[obj]
	} else if create := createAtomCall(f.pkg.Info, atomArg); create != nil {
		facts, _ = resolveAttrs(u, f.pkg, create)
	}
	if facts == nil {
		return nil
	}
	bf := &baseFact{attrs: *facts, malloc: call}
	bf.size, bf.sizeKnown = constUint64(f.pkg.Info, call.Args[1])
	f.baseByCall[call] = bf
	return bf
}

// isMallocCall matches the augmented allocator of §4.1.2: a method named
// Malloc with signature (string, uint64, core.AtomID) mem.Addr, on any
// receiver (the workload.Program interface, *sim.Machine, ...).
func isMallocCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Malloc" {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	sig, ok := s.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 3 || sig.Results().Len() != 1 {
		return false
	}
	return isNamedIn(sig.Params().At(2).Type(), "AtomID", "internal/core") &&
		isNamedIn(sig.Results().At(0).Type(), "Addr", "internal/mem")
}

// isAccessCall matches Program.Load / Program.Store: a method of that name
// with signature (int, mem.Addr) and no results.
func isAccessCall(info *types.Info, call *ast.CallExpr) (store bool, addr ast.Expr, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel || (sel.Sel.Name != "Load" && sel.Sel.Name != "Store") || len(call.Args) != 2 {
		return false, nil, false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false, nil, false
	}
	sig, okSig := s.Type().(*types.Signature)
	if !okSig || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false, nil, false
	}
	if !isNamedIn(sig.Params().At(1).Type(), "Addr", "internal/mem") {
		return false, nil, false
	}
	return sel.Sel.Name == "Store", call.Args[1], true
}

// --- attribute resolution ---

// resolveAttrs folds the Attributes argument of a CreateAtom call to the
// fields the checks need (foldAttrs). It fails when Pattern, StrideBytes or
// RW is not an integer constant; an unresolvable Intensity or Home does not
// give up the whole literal.
func resolveAttrs(u *Unit, pkg *Package, create *ast.CallExpr) (*attrFacts, bool) {
	fields, ok := foldAttrs(u, pkg, create.Args[1])
	if !ok {
		return nil, false
	}
	facts := &attrFacts{pos: create.Pos()}
	facts.site, _ = constString(pkg.Info, create.Args[0])
	for name, dst := range map[string]*int64{"Pattern": &facts.pattern, "StrideBytes": &facts.stride, "RW": &facts.rw} {
		v := fields[name]
		if v == nil {
			return nil, false
		}
		n, exact := constant.Int64Val(constant.ToInt(v))
		if !exact {
			return nil, false
		}
		*dst = n
	}
	return facts, true
}

// --- symbolic address shapes ---

// shape is the symbolic decomposition of an address expression relative to
// the loop nest enclosing the access.
type shape struct {
	base  *baseFact
	nbase int // number of base terms folded in (must end at exactly 1)

	c         int64               // constant byte offset
	terms     map[*types.Var]term // induction vars the offset depends on
	invariant bool                // an additive loop-invariant residue of unknown value
	bad       bool                // unclassifiable; only base association survives
}

// term is how one induction variable enters an address: its class, and its
// coefficient k, which means something only while the class is classCoeff.
// A zero coefficient keeps its term (i*8-i*8).
type term struct {
	class int
	k     int64
}

// Classification of how an induction variable enters an address
// expression, strongest claim first. A term's class only rises.
const (
	classCoeff = iota // linear, known constant coefficient
	classLoose        // linear, unknown loop-constant coefficient
	classIrr          // provably non-affine
)

func (s *shape) dependsOnLoops() bool {
	return len(s.terms) > 0
}

func (s *shape) pureConst() bool {
	return !s.bad && s.nbase == 0 && !s.invariant && !s.dependsOnLoops()
}

// constOnlyOffset reports whether the offset part is exactly the constant c.
func (s *shape) constOnlyOffset() bool {
	return !s.bad && !s.invariant && !s.dependsOnLoops()
}

func constShape(c int64) *shape { return &shape{c: c} }

func invariantShape() *shape { return &shape{invariant: true} }

func badShape() *shape { return &shape{bad: true} }

// markVar folds a term of the given class and coefficient k into v's term:
// v keeps the higher of the two classes, and the coefficients add.
func (s *shape) markVar(v *types.Var, class int, k int64) {
	if s.terms == nil {
		s.terms = make(map[*types.Var]term)
	}
	t := s.terms[v]
	s.terms[v] = term{class: max(t.class, class), k: t.k + k}
}

// demoteAll raises every term of s to at least the given class.
func (s *shape) demoteAll(class int) {
	for v := range s.terms {
		s.markVar(v, class, 0)
	}
}

// add folds b into s (sub negates b's linear part first).
func (s *shape) add(b *shape, sub bool) *shape {
	if s.bad || b.bad {
		out := &shape{bad: true}
		out.base, out.nbase = pickBase(s, b)
		return out
	}
	out := &shape{c: s.c, invariant: s.invariant || b.invariant}
	out.base, out.nbase = pickBase(s, b)
	if sub && b.nbase > 0 {
		out.bad = true
		return out
	}
	sign := int64(1)
	if sub {
		sign = -1
	}
	out.c += sign * b.c
	for v, t := range s.terms {
		out.markVar(v, t.class, t.k)
	}
	for v, t := range b.terms {
		out.markVar(v, t.class, sign*t.k)
	}
	return out
}

func pickBase(a, b *shape) (*baseFact, int) {
	n := a.nbase + b.nbase
	if a.base != nil {
		return a.base, n
	}
	return b.base, n
}

// scale multiplies s by the constant k.
func (s *shape) scale(k int64) *shape {
	if s.bad || s.nbase > 0 {
		return badShape()
	}
	if k == 0 {
		return constShape(0)
	}
	out := &shape{c: s.c * k, invariant: s.invariant}
	for v, t := range s.terms {
		out.markVar(v, t.class, t.k*k)
	}
	return out
}

// --- evaluation context ---

// structRef binds an inlined method receiver to the caller's struct
// literal, whose field expressions evaluate in the caller's context.
type structRef struct {
	lit *ast.CompositeLit
	ctx *evalCtx
}

// evalCtx is one frame of symbolic evaluation: the analyzed body for the
// outermost frame, an inlined callee for nested frames.
type evalCtx struct {
	u     *Unit
	pkg   *Package // package whose Info resolves identifiers in this frame
	facts *bodyFacts
	loops []loopFrame
	idx   *funcIndex

	binds map[*types.Var]*shape     // inlined parameters and helper locals
	recvs map[*types.Var]*structRef // inlined receivers
	depth int
}

func (c *evalCtx) child(pkg *Package) *evalCtx {
	return &evalCtx{
		u: c.u, pkg: pkg, facts: c.facts, loops: c.loops, idx: c.idx,
		binds: make(map[*types.Var]*shape),
		recvs: make(map[*types.Var]*structRef),
		depth: c.depth + 1,
	}
}

// loopFrame is one enclosing loop of the access under evaluation.
type loopFrame struct {
	v          *types.Var
	step       int64
	stepKnown  bool
	init       int64
	initKnown  bool
	limit      int64
	limitIncl  bool
	limitKnown bool
	pos, end   token.Pos
}

// inductionOf returns the loop frame owning v, innermost match.
func (c *evalCtx) inductionOf(v *types.Var) (loopFrame, bool) {
	for i := len(c.loops) - 1; i >= 0; i-- {
		if c.loops[i].v == v {
			return c.loops[i], true
		}
	}
	return loopFrame{}, false
}

const maxEvalDepth = 8

// eval reduces an address (or index) expression to a shape.
func (c *evalCtx) eval(e ast.Expr) *shape {
	if c.depth > maxEvalDepth {
		return badShape()
	}
	e = ast.Unparen(e)
	info := c.pkg.Info

	// The type checker may have folded the whole expression already.
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return constShape(n)
		}
		return invariantShape()
	}

	switch v := e.(type) {
	case *ast.Ident:
		return c.evalIdent(v)
	case *ast.SelectorExpr:
		return c.evalSelector(v)
	case *ast.BinaryExpr:
		return c.evalBinary(v)
	case *ast.UnaryExpr:
		if v.Op == token.SUB {
			return c.eval(v.X).scale(-1)
		}
		if v.Op == token.ADD {
			return c.eval(v.X)
		}
		return badShape()
	case *ast.CallExpr:
		return c.evalCall(v)
	}
	return badShape()
}

func (c *evalCtx) evalIdent(id *ast.Ident) *shape {
	info := c.pkg.Info
	obj, _ := info.Uses[id].(*types.Var)
	if obj == nil {
		return badShape()
	}
	// Inlined bindings shadow everything.
	if sh, ok := c.binds[obj]; ok {
		return sh
	}
	// A Malloc-derived base of the analyzed body.
	if bf := c.facts.bases[obj]; bf != nil {
		return &shape{base: bf, nbase: 1}
	}
	// An induction variable of an enclosing loop.
	if _, ok := c.inductionOf(obj); ok {
		sh := &shape{}
		sh.markVar(obj, classCoeff, 1)
		return sh
	}
	lv := c.facts.locals.vars[obj]
	if lv.fixed() {
		// Declared outside the analyzed body (parameter, closure capture,
		// package-level var). With no write inside the body its value is
		// fixed while the body runs: an additive invariant.
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return badShape() // package-level: other code may write it
		}
		return invariantShape()
	}
	// Single-definition local: substitute its initializer (evaluated at
	// the same loop context, which is exactly its value at the access).
	if w, ok := lv.sole(); ok && w.rhs != nil {
		sub := c.eval(w.rhs)
		if !sub.bad {
			return sub
		}
	}
	if c.loopInvariant(lv) {
		return invariantShape()
	}
	return badShape()
}

// onlyDefined reports whether every write of lv declares it.
func onlyDefined(lv *localVar) bool {
	for _, w := range lv.writes {
		if !w.kind.defines() {
			return false
		}
	}
	return true
}

// loopInvariant reports whether lv's address is never taken and each of
// its writes sits outside the access's enclosing loops and outside
// function literals, so its value cannot change mid-loop.
func (c *evalCtx) loopInvariant(lv *localVar) bool {
	if lv.addrTaken {
		return false
	}
	for _, w := range lv.writes {
		if w.inLit {
			return false
		}
		for _, lf := range c.loops {
			if p := w.id.Pos(); p >= lf.pos && p <= lf.end {
				return false
			}
		}
	}
	return true
}

func (c *evalCtx) evalSelector(sel *ast.SelectorExpr) *shape {
	info := c.pkg.Info
	// Qualified package identifier (pkg.Const was handled by folding;
	// pkg.Var is not provably stable).
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return badShape()
		}
		// Receiver-bound or struct-literal field access: evaluate the
		// literal's field expression in its own context.
		if ref := c.structRefOf(id); ref != nil {
			if fe, fctx, ok := ref.field(sel.Sel.Name); ok {
				return fctx.eval(fe)
			}
			return badShape()
		}
		// A field of a loop-invariant local or captured struct: additive
		// invariant as long as nothing in the body writes through it.
		obj, _ := info.Uses[id].(*types.Var)
		if obj == nil {
			return badShape()
		}
		if lv := c.facts.locals.vars[obj]; lv.fixed() || c.loopInvariant(lv) && onlyDefined(lv) {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return badShape()
			}
			return invariantShape()
		}
	}
	return badShape()
}

// structRefOf resolves an identifier to a struct literal binding: an
// inlined receiver, or a single-assigned struct-literal local of the
// analyzed body.
func (c *evalCtx) structRefOf(id *ast.Ident) *structRef {
	obj, _ := c.pkg.Info.Uses[id].(*types.Var)
	if obj == nil {
		return nil
	}
	if ref, ok := c.recvs[obj]; ok {
		return ref
	}
	if lit := c.facts.structs[obj]; lit != nil {
		return &structRef{lit: lit, ctx: c.rootCtx()}
	}
	return nil
}

// rootCtx returns the outermost (caller) frame, whose package Info resolves
// the analyzed body's own expressions.
func (c *evalCtx) rootCtx() *evalCtx {
	if c.depth == 0 {
		return c
	}
	root := *c
	root.pkg = c.facts.pkg
	root.binds = nil
	root.recvs = nil
	root.depth = 0
	return &root
}

// field returns the expression initializing the named field of the bound
// struct literal, plus the context it must evaluate in.
func (r *structRef) field(name string) (ast.Expr, *evalCtx, bool) {
	info := r.ctx.facts.pkg.Info
	tv, ok := info.Types[r.lit]
	if !ok {
		return nil, nil, false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return nil, nil, false
	}
	for i, elt := range r.lit.Elts {
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			if key, isIdent := kv.Key.(*ast.Ident); isIdent && key.Name == name {
				return kv.Value, r.ctx, true
			}
			continue
		}
		if i < st.NumFields() && st.Field(i).Name() == name {
			return elt, r.ctx, true
		}
	}
	return nil, nil, false
}

func (c *evalCtx) evalBinary(b *ast.BinaryExpr) *shape {
	x := c.eval(b.X)
	y := c.eval(b.Y)
	switch b.Op {
	case token.ADD:
		return x.add(y, false)
	case token.SUB:
		return x.add(y, true)
	case token.MUL:
		return c.evalMul(x, y)
	case token.SHL:
		if y.pureConst() && y.c >= 0 && y.c < 63 {
			return x.scale(1 << uint(y.c))
		}
		return c.evalNonAffine(x, y)
	case token.QUO:
		if x.bad || y.bad || x.nbase > 0 || y.nbase > 0 {
			return badShape()
		}
		if y.pureConst() && !x.dependsOnLoops() {
			return &shape{invariant: x.invariant || x.c != 0}
		}
		// Integer division bends a linear index into a staircase: still
		// monotone/affine-ish per line, but the stride is no longer a
		// provable constant.
		out := x.add(y, false)
		out.c = 0
		out.invariant = true
		out.demoteAll(classLoose)
		return out
	case token.REM, token.SHR, token.AND, token.OR, token.XOR, token.AND_NOT:
		return c.evalNonAffine(x, y)
	}
	return badShape()
}

// evalNonAffine combines two operands under an operator that destroys
// affinity: any induction variable on either side becomes provably
// non-affine evidence.
func (c *evalCtx) evalNonAffine(x, y *shape) *shape {
	if x.bad || y.bad || x.nbase > 0 || y.nbase > 0 {
		return badShape()
	}
	out := &shape{invariant: true}
	for _, s := range []*shape{x, y} {
		for v := range s.terms {
			out.markVar(v, classIrr, 0)
		}
	}
	return out
}

func (c *evalCtx) evalMul(x, y *shape) *shape {
	if x.bad || y.bad || x.nbase > 0 || y.nbase > 0 {
		return badShape()
	}
	if x.constOnlyOffset() {
		return y.scale(x.c)
	}
	if y.constOnlyOffset() {
		return x.scale(y.c)
	}
	xDep, yDep := x.dependsOnLoops(), y.dependsOnLoops()
	switch {
	case !xDep && !yDep:
		return invariantShape()
	case xDep && yDep:
		// var·var: vars appearing on both sides are squared (non-affine);
		// vars on one side keep a linear role with an unknown coefficient.
		out := &shape{invariant: true}
		for _, s := range []*shape{x, y} {
			for v, t := range s.terms {
				_, inX := x.terms[v]
				_, inY := y.terms[v]
				class := classLoose
				if inX && inY {
					class = classIrr
				}
				out.markVar(v, max(t.class, class), 0)
			}
		}
		return out
	default:
		// invariant · induction: linear with an unknown loop-constant
		// coefficient.
		dep := x
		if yDep {
			dep = y
		}
		out := &shape{invariant: true}
		for v, t := range dep.terms {
			out.markVar(v, max(t.class, classLoose), 0)
		}
		return out
	}
}

func (c *evalCtx) evalCall(call *ast.CallExpr) *shape {
	info := c.pkg.Info
	// Type conversion: transparent.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.eval(call.Args[0])
	}
	// A Malloc call used directly as a base (the mat{p.Malloc(...), n}
	// idiom evaluates the field expression here).
	if isMallocCall(info, call) {
		if bf := c.facts.resolveMallocBase(c.u, call); bf != nil {
			return &shape{base: bf, nbase: 1}
		}
		return badShape()
	}
	// Inline small helpers: a declared function or method, or a function
	// literal held in a single-assignment local.
	return c.inlineCall(call)
}

// inlineCall evaluates a call to a provably-pure small helper: a body of
// zero or more single-variable `x := expr` defines followed by a single
// `return expr`. Anything else is unresolvable.
func (c *evalCtx) inlineCall(call *ast.CallExpr) *shape {
	info := c.pkg.Info
	var ftype *ast.FuncType
	var body *ast.BlockStmt
	var defPkg *Package
	var recvRef *structRef
	var recvParam *ast.Ident

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			fd, ok := c.idx.decls[obj]
			if !ok || fd.decl.Recv != nil {
				return badShape()
			}
			ftype, body, defPkg = fd.decl.Type, fd.decl.Body, fd.pkg
		case *types.Var:
			// A function literal in a single-assignment local (the
			// hash-join `hash := func(...) ...` idiom).
			w, ok := c.facts.locals.vars[obj].sole()
			if !ok || w.rhs == nil {
				return badShape()
			}
			lit, ok := ast.Unparen(w.rhs).(*ast.FuncLit)
			if !ok {
				return badShape()
			}
			ftype, body, defPkg = lit.Type, lit.Body, c.facts.pkg
		default:
			return badShape()
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				// Cross-package helper call.
				fn, okF := info.Uses[fun.Sel].(*types.Func)
				if !okF {
					return badShape()
				}
				fd, okD := c.idx.decls[fn]
				if !okD || fd.decl.Recv != nil {
					return badShape()
				}
				ftype, body, defPkg = fd.decl.Type, fd.decl.Body, fd.pkg
				break
			}
		}
		// Method call on a struct-literal-bound receiver (mat.at).
		s := info.Selections[fun]
		if s == nil || s.Kind() != types.MethodVal {
			return badShape()
		}
		fn, okF := s.Obj().(*types.Func)
		if !okF {
			return badShape()
		}
		fd, okD := c.idx.decls[fn]
		if !okD || fd.decl.Recv == nil || len(fd.decl.Recv.List) != 1 || len(fd.decl.Recv.List[0].Names) != 1 {
			return badShape()
		}
		recvID, okR := ast.Unparen(fun.X).(*ast.Ident)
		if !okR {
			return badShape()
		}
		recvRef = c.structRefOf(recvID)
		if recvRef == nil {
			return badShape()
		}
		recvParam = fd.decl.Recv.List[0].Names[0]
		ftype, body, defPkg = fd.decl.Type, fd.decl.Body, fd.pkg
	default:
		return badShape()
	}

	params := flattenParams(ftype)
	if len(params) != len(call.Args) || call.Ellipsis.IsValid() {
		return badShape()
	}

	sub := c.child(defPkg)
	for i, pid := range params {
		obj, ok := defPkg.Info.Defs[pid].(*types.Var)
		if !ok {
			return badShape()
		}
		sub.binds[obj] = c.eval(call.Args[i])
	}
	if recvParam != nil {
		obj, ok := defPkg.Info.Defs[recvParam].(*types.Var)
		if !ok {
			return badShape()
		}
		sub.recvs[obj] = recvRef
	}

	if len(body.List) == 0 || len(body.List) > 8 {
		return badShape()
	}
	for _, st := range body.List[:len(body.List)-1] {
		asg, ok := st.(*ast.AssignStmt)
		if !ok || asg.Tok != token.DEFINE || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return badShape()
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return badShape()
		}
		obj, ok := defPkg.Info.Defs[id].(*types.Var)
		if !ok {
			return badShape()
		}
		sub.binds[obj] = sub.eval(asg.Rhs[0])
	}
	ret, ok := body.List[len(body.List)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return badShape()
	}
	return sub.eval(ret.Results[0])
}

func flattenParams(ft *ast.FuncType) []*ast.Ident {
	var out []*ast.Ident
	if ft.Params == nil {
		return out
	}
	for _, f := range ft.Params.List {
		out = append(out, f.Names...)
	}
	return out
}

// --- loop-nest walking ---

// parseLoop extracts the induction structure of a for statement.
func parseLoop(info *types.Info, fs *ast.ForStmt) loopFrame {
	lf := loopFrame{pos: fs.Pos(), end: fs.End()}
	asg, ok := fs.Init.(*ast.AssignStmt)
	if !ok || asg.Tok != token.DEFINE || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return lf
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return lf
	}
	v, ok := info.Defs[id].(*types.Var)
	if !ok {
		return lf
	}
	// Post: i++ / i-- / i += c / i -= c.
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		if pid, okID := post.X.(*ast.Ident); !okID || info.Uses[pid] != v {
			return lf
		}
		lf.step = 1
		if post.Tok == token.DEC {
			lf.step = -1
		}
		lf.stepKnown = true
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return lf
		}
		pid, okID := post.Lhs[0].(*ast.Ident)
		if !okID || info.Uses[pid] != v {
			return lf
		}
		if n, okC := constInt64(info, post.Rhs[0]); okC {
			switch post.Tok {
			case token.ADD_ASSIGN:
				lf.step, lf.stepKnown = n, true
			case token.SUB_ASSIGN:
				lf.step, lf.stepKnown = -n, true
			}
		}
	default:
		return lf
	}
	lf.v = v
	lf.init, lf.initKnown = constInt64(info, asg.Rhs[0])
	// Cond: i < C / i <= C (or the flipped spellings) with constant C.
	if cond, okC := fs.Cond.(*ast.BinaryExpr); okC {
		lhsID, lhsIsID := ast.Unparen(cond.X).(*ast.Ident)
		rhsID, rhsIsID := ast.Unparen(cond.Y).(*ast.Ident)
		switch {
		case lhsIsID && info.Uses[lhsID] == v:
			if n, okN := constInt64(info, cond.Y); okN {
				switch cond.Op {
				case token.LSS, token.GTR:
					lf.limit, lf.limitKnown = n, true
				case token.LEQ, token.GEQ:
					lf.limit, lf.limitKnown, lf.limitIncl = n, true, true
				}
			}
		case rhsIsID && info.Uses[rhsID] == v:
			if n, okN := constInt64(info, cond.X); okN {
				switch cond.Op {
				case token.GTR, token.LSS:
					lf.limit, lf.limitKnown = n, true
				case token.GEQ, token.LEQ:
					lf.limit, lf.limitKnown, lf.limitIncl = n, true, true
				}
			}
		}
	}
	return lf
}

func constInt64(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	n, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return n, exact
}

// iterationCount returns how many times a fully-constant loop executes
// (0 when it provably never runs or cannot be counted).
func iterationCount(lf loopFrame) int64 {
	if !lf.initKnown || !lf.limitKnown || !lf.stepKnown || lf.step == 0 {
		return 0
	}
	span := lf.limit - lf.init
	if lf.step < 0 {
		span = lf.init - lf.limit
	}
	if lf.limitIncl {
		span++
	}
	if span <= 0 {
		return 0
	}
	step := lf.step
	if step < 0 {
		step = -step
	}
	return (span + step - 1) / step
}

// walkAccesses walks the analyzed body, tracking the enclosing loop nest,
// and invokes fn for every Program.Load/Store with the evaluated shape of
// its address — resolved to a base or not; the analyzer filters. Nested
// function literals are their own bodies and are skipped here.
func walkAccesses(u *Unit, pkg *Package, facts *bodyFacts, idx *funcIndex,
	fn func(ctx *evalCtx, call *ast.CallExpr, sh *shape, store bool)) {

	var walk func(n ast.Node, loops []loopFrame)
	walk = func(n ast.Node, loops []loopFrame) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch v := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				lf := parseLoop(pkg.Info, v)
				if v.Init != nil {
					walk(v.Init, loops)
				}
				walk(v.Body, append(loops[:len(loops):len(loops)], lf))
				return false
			case *ast.RangeStmt:
				lf := loopFrame{pos: v.Pos(), end: v.End(), step: 1, stepKnown: true, init: 0, initKnown: true}
				if id, ok := v.Key.(*ast.Ident); ok && v.Tok == token.DEFINE {
					if obj, okV := pkg.Info.Defs[id].(*types.Var); okV {
						lf.v = obj
					}
				}
				walk(v.Body, append(loops[:len(loops):len(loops)], lf))
				return false
			case *ast.CallExpr:
				store, addrExpr, ok := isAccessCall(pkg.Info, v)
				if !ok {
					return true
				}
				ctx := &evalCtx{u: u, pkg: pkg, facts: facts, loops: loops, idx: idx,
					binds: make(map[*types.Var]*shape), recvs: make(map[*types.Var]*structRef)}
				sh := ctx.eval(addrExpr)
				fn(ctx, v, sh, store)
				return true
			}
			return true
		})
	}
	walk(facts.body, nil)
}

// accessClass is the classification of one resolved (non-bad) access shape
// against the loop nest enclosing it.
type accessClass struct {
	// inner is the innermost enclosing induction variable participating in
	// the offset; nil when the address is loop-invariant.
	inner *types.Var
	// class is how inner enters the offset (classCoeff/classLoose/classIrr).
	class int
	// innerDepth indexes inner's frame in ctx.loops (-1 when inner is nil):
	// frames deeper than innerDepth re-touch the same address every trip.
	innerDepth int
	// lf is inner's loop frame; lfOK reports whether it was found.
	lf   loopFrame
	lfOK bool
	// stride is |coeff(inner) · step|, valid when strideOK (classCoeff with
	// a known loop step).
	stride   int64
	strideOK bool
	// first and last are the provably touched extreme byte offsets, valid
	// when boundsOK: a single known coefficient, no unknown or non-affine
	// terms, no invariant residue, and fully constant loop bounds.
	first, last int64
	boundsOK    bool
}

// lineStride is the stride the cache hierarchy sees: strides at or below one
// line are indistinguishable, all meaning "touch every line in order", so
// they read as one line. Two strides agree when their line strides do.
func (sc semConsts) lineStride(stride int64) int64 { return max(stride, sc.lineBytes) }

// classifyAccess derives the accessClass of a resolved shape. The caller
// must have handled sh.bad (murk) already.
func classifyAccess(ctx *evalCtx, sh *shape) accessClass {
	ac := accessClass{innerDepth: -1}
	for i := len(ctx.loops) - 1; i >= 0 && ac.inner == nil; i-- {
		v := ctx.loops[i].v
		if t, ok := sh.terms[v]; ok && (t.class != classCoeff || t.k != 0) {
			ac.inner, ac.class, ac.innerDepth = v, t.class, i
		}
	}
	if ac.inner == nil || ac.class != classCoeff {
		return ac
	}
	ac.lf, ac.lfOK = ctx.inductionOf(ac.inner)
	if !ac.lfOK || !ac.lf.stepKnown {
		return ac
	}
	k := sh.terms[ac.inner].k
	stride := k * ac.lf.step
	if stride < 0 {
		stride = -stride
	}
	ac.stride, ac.strideOK = stride, true
	// Bounds need inner's term to be the only one.
	if !ac.lf.initKnown || !ac.lf.limitKnown || sh.invariant || len(sh.terms) != 1 {
		return ac
	}
	iters := iterationCount(ac.lf)
	if iters <= 0 {
		return ac
	}
	ac.first = sh.c + k*ac.lf.init
	ac.last = sh.c + k*(ac.lf.init+ac.lf.step*(iters-1))
	ac.boundsOK = true
	return ac
}
