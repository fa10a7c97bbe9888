package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// AttrConflict reports pairs of CreateAtom call sites that pass the same
// creation-site string but provably different Attributes. Atom attributes
// are immutable after CREATE (§3.2): at runtime the first creation wins and
// the second call's attributes are silently dropped (counted by
// LibStats.AttrConflicts — this analyzer is that counter's static twin).
//
// Only constant site strings compare, and only attribute expressions that
// fold to constant composite literals — directly, or through a local or
// package-level variable with a single, never-reassigned initializer. Two
// unresolvable expressions are never reported as conflicting.
var AttrConflict = &Analyzer{
	Name: "attrconflict",
	Doc:  "same CreateAtom site string with different Attributes literals",
	Run:  runAttrConflict,
}

func runAttrConflict(u *Unit) {
	bySite := createSites(u)
	sites := make([]string, 0, len(bySite))
	for site := range bySite {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		var first ast.Expr
		var firstKey string
		for _, s := range bySite[site] {
			attrs := s.call.Args[1]
			key, ok := attrKey(u, s.pkg, attrs)
			if !ok {
				continue
			}
			if first == nil {
				first, firstKey = attrs, key
				continue
			}
			if key != firstKey {
				u.Reportf(attrs.Pos(), "CreateAtom site %q re-created with different attributes {%s} than at %s {%s}; attributes are immutable (§3.2), the first creation wins",
					site, key, u.Fset.Position(first.Pos()), firstKey)
			}
		}
	}
}

// attrKey renders an Attributes expression as its sorted field=value list,
// so {Type: x} and {Type: x, Reuse: 0} compare equal. It fails unless
// every field folds to a constant.
func attrKey(u *Unit, pkg *Package, e ast.Expr) (string, bool) {
	fields, ok := foldAttrs(u, pkg, e)
	if !ok {
		return "", false
	}
	parts := make([]string, 0, len(fields))
	for name, v := range fields {
		if v == nil {
			return "", false
		}
		parts = append(parts, name+"="+v.ExactString())
	}
	sort.Strings(parts)
	return strings.Join(parts, " "), true
}
