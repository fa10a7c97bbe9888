package analysis

import (
	"go/ast"
	"go/types"
)

// SealedLib reports CreateAtom calls that provably execute after Segment()
// on the same library variable within one function. Segment() emits the
// atom segment — the lossless program-binary encoding of every atom the
// program declares (§3.5.2) — so atoms created afterwards are invisible to
// the OS loader and the hardware attribute tables primed from the segment.
//
// Order is judged only through shared-block statement indices; calls inside
// function literals, defer, or go statements are never ordered. A library
// variable reassigned more than once in the body is skipped: the later
// CreateAtom may target a different library.
var SealedLib = &Analyzer{
	Name: "sealedlib",
	Doc:  "CreateAtom after Segment(): the atom is missing from the emitted atom segment",
	Run:  runSealedLib,
}

func runSealedLib(u *Unit) {
	for _, pkg := range u.Packages {
		funcBodies(pkg, func(body *ast.BlockStmt) {
			sealedCheckBody(u, pkg.Info, body)
		})
	}
}

func sealedCheckBody(u *Unit, info *types.Info, body *ast.BlockStmt) {
	type libCalls struct {
		segments []callSite
		creates  []callSite
	}
	byLib := make(map[*types.Var]*libCalls)
	recvVar := func(recv ast.Expr) *types.Var {
		id, ok := recv.(*ast.Ident)
		if !ok {
			return nil
		}
		obj, _ := info.Uses[id].(*types.Var)
		return obj
	}
	walkCalls(body, func(site callSite) {
		name, recv, ok := libMethod(info, site.call)
		if !ok || (name != "Segment" && name != "CreateAtom") {
			return
		}
		obj := recvVar(recv)
		if obj == nil {
			return
		}
		lc := byLib[obj]
		if lc == nil {
			lc = &libCalls{}
			byLib[obj] = lc
		}
		if name == "Segment" {
			lc.segments = append(lc.segments, site)
		} else {
			lc.creates = append(lc.creates, site)
		}
	})
	var locals *localIndex
	for obj, lc := range byLib {
		if len(lc.segments) == 0 || len(lc.creates) == 0 {
			continue
		}
		if locals == nil {
			locals = indexLocals(info, body)
		}
		if assignCount(locals.vars[obj]) > 1 {
			continue
		}
		for _, create := range lc.creates {
			for _, seg := range lc.segments {
				if seg.strictlyBefore(create) {
					u.Reportf(create.call.Pos(), "CreateAtom on %q after its Segment() call at %s: the new atom is missing from the emitted atom segment (§3.5.2)",
						obj.Name(), u.Fset.Position(seg.call.Pos()))
					break
				}
			}
		}
	}
}

// assignCount counts the :=, = and op= writes of a variable anywhere in
// the body, nested function literals included.
func assignCount(lv *localVar) int {
	n := 0
	for _, w := range lv.writes {
		if w.kind == writeDefine || w.kind == writeAssign {
			n++
		}
	}
	return n
}
