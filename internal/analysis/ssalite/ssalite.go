// Package ssalite lowers type-checked Go functions into a pruned
// static-single-assignment-style effect stream: every function body becomes
// a linear sequence of the instructions that matter to interprocedural
// effect proofs — heap allocations, stores classified by the named types
// their destination chain traverses, calls resolved to static callees where
// the language allows it, channel sends, and go/defer statements.
//
// The full golang.org/x/tools/go/ssa form carries virtual registers, basic
// blocks, and phi nodes so that flow-sensitive analyses can track values
// through control flow. The hot-path provers built on this package
// (allocfree, statsneutral in internal/analysis) prove *absence of effects*,
// which is a flow-insensitive property: an allocation or a stats store on
// any path through the function violates the contract regardless of the
// branch structure around it. The lowering therefore prunes everything but
// the effect instructions — and because this module is deliberately
// stdlib-only (see internal/analysis: "built only on the standard library"),
// the pruned form is built here on go/ast + go/types rather than imported.
//
// What is kept per instruction:
//
//   - Alloc: a site the gc compiler may turn into a heap allocation —
//     make/new, append (backing-array growth), map assignment (bucket
//     growth), escaping composite literals (&T{...}, slice and map
//     literals), capturing func literals and method values (closure
//     records), interface boxing at assignments / returns / call arguments
//     / sends / conversions, string concatenation and string<->[]byte/rune
//     conversions, and variadic argument packing.
//   - Store: a write whose destination selector/index chain passes through
//     at least one named type (u.stats.Lookups records both AMU and
//     AMUStats). Writes to plain locals carry no cross-layer meaning and
//     are pruned.
//   - Call: with the static *types.Func callee when resolvable; interface
//     dispatch, function-valued expressions, and function-typed fields
//     lower to a dynamic call with a description of why resolution failed.
//   - Send, Go, Defer: effect statements the provers treat specially.
//
// Function literals are inlined into their enclosing function's stream:
// whether a literal runs at its syntactic point or later, its effects are
// attributed to the function that created it, which is the conservative
// direction for both provers.
package ssalite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Source is one type-checked package to lower.
type Source struct {
	// Pkg and Info carry the go/types results.
	Pkg  *types.Package
	Info *types.Info
	// Files are the package's parsed sources.
	Files []*ast.File
}

// Program is the lowered form of a set of packages.
type Program struct {
	// Fset translates positions.
	Fset *token.FileSet
	// Funcs lists every lowered function in deterministic (package, file,
	// declaration) order.
	Funcs []*Func

	byObj map[*types.Func]*Func
}

// FuncOf returns the lowered body of the given function object, or nil when
// its body was not among the lowered sources (another module, or a package
// outside the analyzed set). Generic instantiations resolve to their
// origin's body.
func (p *Program) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	if f, ok := p.byObj[obj]; ok {
		return f
	}
	if orig := obj.Origin(); orig != obj {
		return p.byObj[orig]
	}
	return nil
}

// Func is one lowered function or method.
type Func struct {
	// Obj is the declared function object (the generic origin for generic
	// functions).
	Obj *types.Func
	// Name is the display name, package-qualified: "core.NewAMU",
	// "(*core.AMU).Lookup".
	Name string
	// Pos locates the func keyword.
	Pos token.Pos
	// Doc is the declaration's doc comment, where the //xmem: contract
	// directives sit; nil when there is none.
	Doc *ast.CommentGroup
	// Instrs is the effect stream, in source order (func literal bodies
	// inlined at their creation point).
	Instrs []Instr
}

// InstrKind classifies one effect instruction.
type InstrKind uint8

const (
	// KindAlloc is a site that may heap-allocate; Detail names the class.
	KindAlloc InstrKind = iota
	// KindCall is a function call: Callee when statically resolved, else
	// Detail describes the dynamic dispatch.
	KindCall
	// KindStore is a write through named types (Owners, Path).
	KindStore
	// KindSend is a channel send.
	KindSend
	// KindGo is a go statement.
	KindGo
	// KindDefer is a defer statement.
	KindDefer
)

// Instr is one lowered effect.
type Instr struct {
	Kind InstrKind
	// Pos locates the effect in the source.
	Pos token.Pos
	// Detail describes the allocation class (KindAlloc) or the unresolved
	// dispatch (dynamic KindCall).
	Detail string
	// Callee is the static callee of a KindCall, nil for dynamic calls.
	Callee *types.Func
	// VariadicPacked marks a KindCall whose arguments were packed into a
	// fresh variadic slice (a companion KindAlloc is emitted at the same
	// position; consumers can avoid double-reporting the call itself).
	VariadicPacked bool
	// Owners are the named types the destination chain of a KindStore
	// traverses, innermost first (u.stats.Lookups → [AMUStats, AMU]).
	Owners []*types.Named
	// Path renders the destination expression of a KindStore.
	Path string
}

// Build lowers every function declaration in srcs. The file set must be the
// one the sources were parsed with.
func Build(fset *token.FileSet, srcs []Source) *Program {
	p := &Program{Fset: fset, byObj: make(map[*types.Func]*Func)}
	for _, src := range srcs {
		for _, file := range src.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{
					Obj:  obj,
					Name: DisplayName(obj),
					Pos:  fd.Pos(),
					Doc:  fd.Doc,
				}
				lo := &lowerer{info: src.Info, fn: fn}
				lo.walk(fd.Body, obj.Type().(*types.Signature))
				p.Funcs = append(p.Funcs, fn)
				p.byObj[obj] = fn
			}
		}
	}
	return p
}

// DisplayName renders a function object package-qualified, with methods in
// the conventional "(*pkg.Type).Method" form.
func DisplayName(obj *types.Func) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if pt, isPtr := t.(*types.Pointer); isPtr {
			t = pt.Elem()
			ptr = "*"
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return "(" + ptr + pkgShort(n.Obj().Pkg()) + "." + n.Obj().Name() + ")." + obj.Name()
		}
	}
	return pkgShort(obj.Pkg()) + "." + obj.Name()
}

func pkgShort(pkg *types.Package) string {
	if pkg == nil {
		return "builtin"
	}
	path := pkg.Path()
	return path[strings.LastIndex(path, "/")+1:]
}
