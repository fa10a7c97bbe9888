package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NoShare turns the runner's comment-only ownership rule into a static
// proof. The simulator's mutable cores — sim.Machine, core.Lib,
// dram.Controller, dram.RegionMemory, obs.AtomTable,
// kernel.FrameAllocator — are documented "not safe for concurrent use":
// every sweep point must build its own (DESIGN.md, "Sweep runner"). The
// analyzer flags the three ways such a value escapes single-ownership:
//
//   - captured free by the function a `go` statement starts;
//   - captured free by a function literal handed to runner.Run, either as
//     a call argument or as the Run field of a runner.Point literal (sweep
//     points run concurrently, so a capture is sharing);
//   - stored into a package-level variable (any goroutine can then reach
//     it).
//
// Struct-field selections do not count as captures — only the root
// identifier's binding matters — but a *carrier* (a struct holding a
// guarded-type field, like the scheduler's coreTask) is itself tracked:
// capturing one hands over everything it holds. A carrier captured by a go
// statement is accepted only when the goroutine body follows the quantum
// ownership-transfer protocol the multicore scheduler uses: its lexically
// first use of the carrier receives from one of the carrier's channel
// fields (<-t.start, or ranging over one) — the goroutine owns nothing
// until a token arrives — and its lexically last use sits inside a send
// statement (t.finish <- token{} or t.handoff() <- token{}) that
// relinquishes ownership. Carriers captured by sweep points or stored into
// globals have no such serialization and are always findings.
//
// A finding on a line carrying (or directly below a line carrying) an
// `//xmem:share-ok` directive is suppressed: the marker records that a
// human audited the sharing.
var NoShare = &Analyzer{
	Name: "noshare",
	Doc:  "non-concurrency-safe simulator state leaked into goroutines, sweep points, or globals",
	Run:  runNoShare,
}

// noshareTypes are the named types whose values must stay single-owner.
// Pointers to them count the same.
var noshareTypes = []typeName{
	{"Machine", "internal/sim"},
	{"Lib", "internal/core"},
	{"Controller", "internal/dram"},
	{"RegionMemory", "internal/dram"},
	{"AtomTable", "internal/obs"},
	{"FrameAllocator", "internal/kernel"},
}

// noshareType reports whether t is (a pointer to) one of the guarded types
// and returns its display name.
func noshareType(t types.Type) (string, bool) {
	prefix := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		prefix = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	name, ok := namedAmong(named, noshareTypes)
	return prefix + name, ok
}

// carrierType reports whether t is (a pointer to) a named struct type with
// at least one field of a guarded type — capturing such a value hands over
// the guarded state it holds. One level deep: a struct holding a carrier is
// not itself a carrier (the inner capture is the inner owner's business).
// Returns the carrier's display name and the first guarded field it holds.
func carrierType(t types.Type) (carrier, guarded string, ok bool) {
	if p, okP := t.(*types.Pointer); okP {
		t = p.Elem()
	}
	named, okN := t.(*types.Named)
	if !okN {
		return "", "", false
	}
	st, okS := named.Underlying().(*types.Struct)
	if !okS {
		return "", "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		if g, bad := noshareType(st.Field(i).Type()); bad {
			return named.Obj().Name(), g, true
		}
	}
	return "", "", false
}

// provesHandoff reports whether body follows the quantum ownership-transfer
// protocol for the captured carrier obj: the lexically first use receives
// from a channel field of the carrier (<-t.ch, or `for range t.ch`), so the
// goroutine touches nothing before a token arrives, and the lexically last
// use is part of a send statement (either operand: `t.finish <- token{}`
// and `t.handoff() <- token{}` both relinquish), so ownership is handed
// onward and never used again.
func provesHandoff(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	var uses []*ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			uses = append(uses, id)
		}
		return true
	})
	if len(uses) == 0 {
		return false
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i].Pos() < uses[j].Pos() })
	return receivesToken(info, body, uses[0]) && sendsToken(body, uses[len(uses)-1])
}

// receivesToken reports whether use is the base of a channel-field receive:
// the X of a `<-t.ch` unary or a `for range t.ch` whose operand is a
// channel-typed selector rooted at use.
func receivesToken(info *types.Info, body ast.Node, use *ast.Ident) bool {
	ok := false
	check := func(x ast.Expr) {
		sel, okS := ast.Unparen(x).(*ast.SelectorExpr)
		if !okS || ast.Unparen(sel.X) != ast.Expr(use) {
			return
		}
		if tv, okT := info.Types[ast.Expr(sel)]; okT && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				ok = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				check(v.X)
			}
		case *ast.RangeStmt:
			check(v.X)
		}
		return true
	})
	return ok
}

// sendsToken reports whether use sits lexically inside a send statement.
func sendsToken(body ast.Node, use *ast.Ident) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok && s.Pos() <= use.Pos() && use.End() <= s.End() {
			found = true
		}
		return true
	})
	return found
}

func runNoShare(u *Unit) {
	audited := lineDirectives(u, "share-ok")
	seen := make(map[token.Pos]bool) // dedupes nested-context reports
	report := func(pos token.Pos, format string, args ...interface{}) {
		if seen[pos] || audited.exempts(u.Fset, pos) {
			return
		}
		seen[pos] = true
		u.Reportf(pos, format, args...)
	}

	for _, pkg := range u.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.GoStmt:
					// A go statement may prove carrier safety via the
					// ownership-transfer protocol when it starts a literal
					// whose body we can see.
					var body *ast.BlockStmt
					if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
						body = lit.Body
					}
					reportCaptures(u, info, v.Call, v.Pos(), v.End(),
						"started by a go statement", body, report)
				case *ast.CallExpr:
					if isRunnerRun(info, v) {
						for _, arg := range v.Args {
							ast.Inspect(arg, func(x ast.Node) bool {
								if lit, ok := x.(*ast.FuncLit); ok {
									reportCaptures(u, info, lit, lit.Pos(), lit.End(),
										"passed to runner.Run", nil, report)
									return false
								}
								return true
							})
						}
					}
				case *ast.CompositeLit:
					if isRunnerPoint(info, v) {
						for _, elt := range v.Elts {
							kv, ok := elt.(*ast.KeyValueExpr)
							if !ok {
								continue
							}
							key, ok := kv.Key.(*ast.Ident)
							if !ok || key.Name != "Run" {
								continue
							}
							if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
								reportCaptures(u, info, lit, lit.Pos(), lit.End(),
									"captured by a sweep point's Run function", nil, report)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj, ok := info.Uses[id].(*types.Var)
						if !ok || obj.IsField() {
							continue
						}
						if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
							if name, bad := noshareType(obj.Type()); bad {
								report(id.Pos(),
									"%s stored into package-level variable %q: %s is not safe for concurrent use; keep it owned by the function that built it (or mark an audited line //xmem:share-ok)",
									name, obj.Name(), name)
							} else if cname, g, isC := carrierType(obj.Type()); isC {
								report(id.Pos(),
									"carrier %s (holds %s) stored into package-level variable %q: any goroutine can then reach the guarded state; keep it owned (or mark an audited line //xmem:share-ok)",
									cname, g, obj.Name())
							}
						}
					}
				}
				return true
			})
		}
	}
}

// reportCaptures flags free identifiers of guarded or carrier types inside
// root: uses of variables declared outside [lo, hi] (struct fields excluded
// — only the root binding of a selector chain is a capture). protoBody,
// when non-nil, is the started goroutine's body: a captured carrier proven
// to follow the ownership-transfer protocol there is accepted. Each
// captured variable is reported once, at its first use.
func reportCaptures(u *Unit, info *types.Info, root ast.Node, lo, hi token.Pos, how string, protoBody *ast.BlockStmt, report func(token.Pos, string, ...interface{})) {
	flagged := make(map[*types.Var]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || flagged[obj] {
			return true
		}
		if obj.Pos() >= lo && obj.Pos() <= hi {
			return true // bound inside the concurrent extent: point-private
		}
		if name, bad := noshareType(obj.Type()); bad {
			flagged[obj] = true
			report(id.Pos(),
				"%s %q captured by a function %s: %s is not safe for concurrent use; construct it inside, or mark an audited capture //xmem:share-ok",
				name, obj.Name(), how, name)
			return true
		}
		cname, g, isC := carrierType(obj.Type())
		if !isC {
			return true
		}
		flagged[obj] = true
		if protoBody != nil && provesHandoff(info, protoBody, obj) {
			return true // token-passing protocol serializes the ownership
		}
		report(id.Pos(),
			"carrier %q (%s holds %s) captured by a function %s without the ownership-transfer protocol: first use must receive from a carrier channel field and last use must send the token onward (or mark an audited capture //xmem:share-ok)",
			obj.Name(), cname, g, how)
		return true
	})
}

// isRunnerRun matches a call to the sweep engine's Run function.
func isRunnerRun(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), "experiments/runner")
}

// isRunnerPoint matches a composite literal of runner.Point (any
// instantiation).
func isRunnerPoint(info *types.Info, lit *ast.CompositeLit) bool {
	return isNamedIn(info.Types[lit].Type, "Point", "experiments/runner")
}
