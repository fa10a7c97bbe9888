package analysis

// This file is the analyzers' one front end: how they read //xmem:
// directives, core.Attributes expressions, CreateAtom sites and named
// types. Each analyzer keeps its own judgement; none reads these inputs any
// other way.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// --- //xmem: directives ---

// directive is one //xmem:<name> comment. The comment must start with
// //xmem:; the name ends at the first space, and the rest of the comment,
// trimmed, is the reason.
//
// In a function's doc comment a directive applies to the function
// (allocfree, statsneutral, alloc-ok, stats-ok). Anywhere else it exempts
// its own line and the next one (alloc-ok, stats-ok, share-ok, noinfer).
type directive struct {
	name, reason string
	pos          token.Pos
}

// parseDirective reads c as a directive.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//xmem:")
	if !ok {
		return directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	return directive{name: name, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// funcDirective returns the first directive called name in a function's
// doc comment.
func funcDirective(doc *ast.CommentGroup, name string) (directive, bool) {
	if doc != nil {
		for _, c := range doc.List {
			if d, ok := parseDirective(c); ok && d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// lineMarks are the directives called one name outside function doc
// comments, indexed by file and line.
type lineMarks struct {
	lines map[string]map[int]bool
	list  []directive
}

// lineDirectives gathers the line directives called name across the whole
// universe: a suppression in a package outside the selection must still
// work when an analyzer reaches its code.
func lineDirectives(u *Unit, name string) *lineMarks {
	m := &lineMarks{lines: make(map[string]map[int]bool)}
	for _, pkg := range u.Universe() {
		for _, file := range pkg.Files {
			docs := make(map[*ast.CommentGroup]bool)
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
					docs[fd.Doc] = true
				}
			}
			for _, cg := range file.Comments {
				if docs[cg] {
					continue
				}
				for _, c := range cg.List {
					d, ok := parseDirective(c)
					if !ok || d.name != name {
						continue
					}
					p := u.Fset.Position(d.pos)
					if m.lines[p.Filename] == nil {
						m.lines[p.Filename] = make(map[int]bool)
					}
					m.lines[p.Filename][p.Line] = true
					m.list = append(m.list, d)
				}
			}
		}
	}
	return m
}

// exempts reports whether pos's line, or the line above it, carries the
// directive.
func (m *lineMarks) exempts(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	lines := m.lines[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// --- core.Attributes ---

// foldAttrs reduces a core.Attributes expression to the value of every
// field: an omitted field is 0, and a field that is not a constant is nil.
// The expression must be a composite literal, directly or through
// variables with a single, never-reassigned initializer (the package-level
// vecAttrs/tileAttrs idiom), chased at most four deep.
func foldAttrs(u *Unit, pkg *Package, e ast.Expr) (map[string]constant.Value, bool) {
	for depth := 0; depth <= 4; depth++ {
		switch v := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return foldAttrsLit(pkg, v)
		case *ast.Ident:
			obj, ok := pkg.Info.Uses[v].(*types.Var)
			if !ok {
				return nil, false
			}
			if e, pkg, ok = singleInitializer(u, obj); !ok {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return nil, false
}

func foldAttrsLit(pkg *Package, lit *ast.CompositeLit) (map[string]constant.Value, bool) {
	tv, ok := pkg.Info.Types[lit]
	if !ok || !isNamedIn(tv.Type, "Attributes", "internal/core") {
		return nil, false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	fields := make(map[string]constant.Value, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i).Name()] = constant.MakeInt64(0)
	}
	for i, elt := range lit.Elts {
		name, value := "", elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			key, isIdent := kv.Key.(*ast.Ident)
			if !isIdent {
				return nil, false
			}
			name, value = key.Name, kv.Value
		} else {
			if i >= st.NumFields() {
				return nil, false
			}
			name = st.Field(i).Name()
		}
		fields[name] = pkg.Info.Types[value].Value
	}
	return fields, true
}

// singleInitializer returns the unique initializer expression of a variable
// that is defined exactly once and never reassigned or address-taken in its
// defining package — the only case where the initializer provably is the
// variable's value at every use.
func singleInitializer(u *Unit, obj *types.Var) (ast.Expr, *Package, bool) {
	if obj.Pkg() == nil {
		return nil, nil, false
	}
	var defPkg *Package
	for _, pkg := range u.Packages {
		if pkg.Types == obj.Pkg() {
			defPkg = pkg
			break
		}
	}
	if defPkg == nil {
		return nil, nil, false
	}
	var init ast.Expr
	clean := true
	for _, file := range defPkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if !clean {
				return false
			}
			switch v := n.(type) {
			case *ast.ValueSpec:
				for i, name := range v.Names {
					if defPkg.Info.Defs[name] == obj {
						if len(v.Values) != len(v.Names) || init != nil {
							clean = false
							return false
						}
						init = v.Values[i]
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					id, okIdent := lhs.(*ast.Ident)
					if !okIdent {
						continue
					}
					if defPkg.Info.Defs[id] == obj {
						if v.Tok != token.DEFINE || len(v.Lhs) != len(v.Rhs) || init != nil {
							clean = false
							return false
						}
						init = v.Rhs[i]
					} else if defPkg.Info.Uses[id] == obj {
						// Any plain assignment after the definition makes
						// the initializer unreliable.
						clean = false
						return false
					}
				}
			case *ast.UnaryExpr:
				if v.Op == token.AND {
					if id, okIdent := v.X.(*ast.Ident); okIdent && defPkg.Info.Uses[id] == obj {
						clean = false
						return false
					}
				}
			}
			return true
		})
	}
	if !clean || init == nil {
		return nil, nil, false
	}
	return init, defPkg, true
}

// --- CreateAtom sites ---

// createSite is one CreateAtom call with a constant site string.
type createSite struct {
	pkg  *Package
	call *ast.CallExpr
	// lit is the inline core.Attributes literal, or nil when the attributes
	// are not written inline.
	lit *ast.CompositeLit
}

// createAtomCall returns e as a call to core.Lib.CreateAtom(site, attrs),
// or nil when e is not one. It is the one way the analyzers recognise a
// CreateAtom call.
func createAtomCall(info *types.Info, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	if name, _, okLib := libMethod(info, call); !okLib || name != "CreateAtom" {
		return nil
	}
	return call
}

// createSites lists every CreateAtom call of the analyzed packages whose
// site string is constant, grouped by site in source order. The runtime
// keys atoms by site string, so these are the calls that declare one atom.
func createSites(u *Unit) map[string][]createSite {
	sites := make(map[string][]createSite)
	for _, pkg := range u.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				call := createAtomCall(pkg.Info, e)
				if call == nil {
					return true
				}
				site, okSite := constString(pkg.Info, call.Args[0])
				if !okSite {
					return true
				}
				s := createSite{pkg: pkg, call: call}
				if lit, okLit := ast.Unparen(call.Args[1]).(*ast.CompositeLit); okLit {
					if tv, okTV := pkg.Info.Types[lit]; okTV && isNamedIn(tv.Type, "Attributes", "internal/core") {
						s.lit = lit
					}
				}
				sites[site] = append(sites[site], s)
				return true
			})
		}
	}
	return sites
}

// --- named types ---

// isNamedIn reports whether t (or its pointee) is the named type name
// declared in a package whose import path ends with pkgSuffix.
func isNamedIn(t types.Type, name, pkgSuffix string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// typeName names a declared type by its name and a suffix of its package's
// import path.
type typeName struct{ name, pkgSuffix string }

// namedAmong reports whether n is one of names and returns its display
// name ("core.AMU").
func namedAmong(n *types.Named, names []typeName) (string, bool) {
	for _, tn := range names {
		if isNamedIn(n, tn.name, tn.pkgSuffix) {
			return path.Base(tn.pkgSuffix) + "." + tn.name, true
		}
	}
	return "", false
}
