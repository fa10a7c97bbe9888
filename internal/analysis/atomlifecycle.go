package analysis

import (
	"go/ast"
	"go/types"
)

// AtomLifecycle reports provable violations of the Atom lifecycle contract
// (§3.2, Table 2) inside a single function body:
//
//   - a MAP/UNMAP/ACTIVATE/DEACTIVATE call on an AtomID that no reaching
//     CreateAtom produced (the zero value, a constant, or a never-created
//     local);
//   - ATOM_UNMAP on an atom the function never maps;
//   - ATOM_ACTIVATE on an atom the function never maps, or provably before
//     its first MAP (ACTIVATE only has meaning for mapped atoms).
//
// The analysis is deliberately conservative: it only judges local variables
// whose every assignment it can classify and which never escape the
// function (no address-taken uses, no calls outside the XMemLib operators,
// no captures by function literals). Anything else — IDs received as
// parameters, stored in structs, or threaded through helpers — is left to
// the runtime core.InvariantChecker.
var AtomLifecycle = &Analyzer{
	Name: "atomlifecycle",
	Doc:  "ops on never-created AtomIDs, UNMAP without MAP, ACTIVATE before/without MAP",
	Run:  runAtomLifecycle,
}

// atomVar accumulates what one body proves about a local AtomID variable.
type atomVar struct {
	created int  // assignments from CreateAtom
	badSrc  int  // zero-value declarations or constant assignments
	unknown int  // assignments the analysis cannot classify
	escaped bool // any use outside XMemLib operator positions
	ops     []opUse
}

// opUse is one XMemLib operator call taking the variable as its atom ID.
type opUse struct {
	name string
	site callSite
}

func runAtomLifecycle(u *Unit) {
	for _, pkg := range u.Packages {
		funcBodies(pkg, func(body *ast.BlockStmt) {
			lifecycleCheckBody(u, pkg.Info, body)
		})
	}
}

func lifecycleCheckBody(u *Unit, info *types.Info, body *ast.BlockStmt) {
	foreign := nestedFuncLits(body)

	// inOwn reports whether a node position belongs to this body rather
	// than a nested function literal (those are analyzed as their own
	// scopes; from here their contents only matter as escapes).
	ownInspect := func(f func(n ast.Node) bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			if blk, ok := n.(*ast.BlockStmt); ok && foreign[blk] {
				return false
			}
			return f(n)
		})
	}

	// Pass 1: variables declared by this body.
	declared := make(map[*types.Var]*atomVar)
	ownInspect(func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, okVar := info.Defs[id].(*types.Var); okVar {
				declared[v] = &atomVar{}
			}
		}
		return true
	})

	// Pass 2: classify every assignment to a declared variable. consumed
	// marks identifier occurrences accounted for here or as operator
	// arguments, so pass 4 can treat everything else as an escape.
	consumed := make(map[*ast.Ident]bool)
	classify := func(lhs ast.Expr, rhs ast.Expr, paired bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj, _ := info.Defs[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Uses[id].(*types.Var)
		}
		v := declared[obj]
		if v == nil {
			return
		}
		consumed[id] = true
		switch {
		case !paired:
			v.unknown++
		case rhs == nil:
			v.badSrc++ // zero-value declaration
		case createAtomCall(info, rhs) != nil:
			v.created++
		case isConst(info, rhs):
			v.badSrc++ // constant: the zero value, InvalidAtom, AtomID(n)
		default:
			v.unknown++
		}
	}
	ownInspect(func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					classify(st.Lhs[i], st.Rhs[i], true)
				}
			} else {
				for _, lhs := range st.Lhs {
					classify(lhs, nil, false)
				}
			}
		case *ast.ValueSpec:
			switch {
			case len(st.Values) == 0:
				for _, name := range st.Names {
					classify(name, nil, true)
				}
			case len(st.Values) == len(st.Names):
				for i := range st.Names {
					classify(st.Names[i], st.Values[i], true)
				}
			default:
				for _, name := range st.Names {
					classify(name, nil, false)
				}
			}
		}
		return true
	})

	// Pass 3: operator calls taking a declared variable (or a constant) as
	// their atom ID.
	walkCalls(body, func(site callSite) {
		name, _, ok := libMethod(info, site.call)
		if !ok || !isAtomOp(name) || len(site.call.Args) == 0 {
			return
		}
		arg := site.call.Args[0]
		if isConst(info, arg) {
			u.Reportf(arg.Pos(), "%s called with constant atom ID %s: no reaching CreateAtom produced it",
				name, renderConst(info, arg))
			return
		}
		id, okIdent := arg.(*ast.Ident)
		if !okIdent || site.unordered {
			return
		}
		obj, _ := info.Uses[id].(*types.Var)
		if v := declared[obj]; v != nil {
			consumed[id] = true
			v.ops = append(v.ops, opUse{name: name, site: site})
		}
	})

	// Pass 4: every remaining use of a declared variable — passed to other
	// functions, address taken, captured by a literal — is an escape; the
	// variable's lifecycle is no longer this function's alone to judge.
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !consumed[id] {
			if obj, okVar := info.Uses[id].(*types.Var); okVar {
				if v := declared[obj]; v != nil {
					v.escaped = true
				}
			}
		}
		return true
	})

	// Verdicts.
	for obj, v := range declared {
		if len(v.ops) == 0 || v.escaped || v.unknown > 0 {
			continue
		}
		if v.created == 0 {
			if v.badSrc > 0 {
				op := v.ops[0]
				u.Reportf(op.site.call.Pos(), "%s on %q, which no reaching CreateAtom produced (zero or constant AtomID); the op is a silent no-op",
					op.name, obj.Name())
			}
			continue
		}
		var maps, unmaps, activates []opUse
		for _, op := range v.ops {
			switch {
			case isMapOp(op.name):
				maps = append(maps, op)
			case isUnmapOp(op.name):
				unmaps = append(unmaps, op)
			case op.name == "AtomActivate":
				activates = append(activates, op)
			}
		}
		if len(maps) == 0 && len(unmaps) > 0 {
			u.Reportf(unmaps[0].site.call.Pos(), "%s on %q, which this function never maps: MAP/UNMAP must balance",
				unmaps[0].name, obj.Name())
		}
		if len(maps) == 0 && len(activates) > 0 {
			u.Reportf(activates[0].site.call.Pos(), "AtomActivate on %q, which this function never maps: ACTIVATE only has meaning for mapped atoms (§3.2)",
				obj.Name())
		}
		if len(maps) > 0 {
			for _, act := range activates {
				if allStrictlyAfter(act.site, maps) {
					u.Reportf(act.site.call.Pos(), "AtomActivate on %q before its first AtomMap: ACTIVATE only has meaning for mapped atoms (§3.2)",
						obj.Name())
					break
				}
			}
		}
	}
}

// allStrictlyAfter reports whether every map op provably executes after a.
func allStrictlyAfter(a callSite, maps []opUse) bool {
	for _, m := range maps {
		if !a.strictlyBefore(m.site) {
			return false
		}
	}
	return true
}

// renderConst pretty-prints a folded constant argument.
func renderConst(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return tv.Value.String()
	}
	return "?"
}
