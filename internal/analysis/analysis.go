// Package analysis implements xmem-vet: static checks, built only on the
// standard library's go/ast, go/parser, go/token, and go/types, that verify
// callers of the XMemLib API (internal/core.Lib) honor the Atom contract of
// the paper (§3.2): attributes are immutable after CREATE, MAP/UNMAP must
// balance, ACTIVATE only has meaning for mapped atoms, and the atom segment
// emitted by Segment() must describe every atom the program creates.
//
// Every check reports only what it can prove from the source; the runtime
// twin of each analyzer (core.InvariantChecker) covers the dynamic cases
// static analysis must leave alone.
package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Analyzer names the check that fired.
	Analyzer string
	// Pos locates the offending source.
	Pos token.Position
	// Message describes the misuse.
	Message string
	// SuggestedFixes are machine-applicable edits resolving the finding.
	// Most analyzers prove a violation without knowing the repair and leave
	// this nil; attrinfer only reports when it can also construct the fix.
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one machine-applicable repair for a finding. Applying
// every edit (they never overlap within one fix) resolves the finding.
type SuggestedFix struct {
	// Message describes the repair in one line.
	Message string
	// Edits are the byte-offset text replacements, possibly across files
	// (an attribute strengthened at several CreateAtom calls of the same
	// site must change everywhere at once to keep attrconflict quiet).
	Edits []TextEdit
}

// TextEdit replaces the bytes [Start, End) of File with NewText.
// Start == End is a pure insertion.
type TextEdit struct {
	// File is the absolute path of the file to edit.
	File string
	// Start and End are byte offsets into the file's current content.
	Start, End int
	// NewText is the replacement text.
	NewText string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is a single static check, run over the whole loaded module so
// cross-package facts (creation sites, attribute literals) are visible.
type Analyzer struct {
	// Name tags findings and selects the analyzer on the command line.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects u's packages and reports through u.
	Run func(u *Unit)
}

// Unit is the context handed to each analyzer.
type Unit struct {
	// Fset translates positions.
	Fset *token.FileSet
	// Packages are the type-checked packages under analysis.
	Packages []*Package
	// AllPackages, when non-nil, is a superset of Packages holding every
	// loaded package. Interprocedural analyzers resolve call targets against
	// it so a selective run (xmem-vet -run allocfree internal/core) still
	// sees the bodies of callees in other packages; nil means Packages is
	// the whole world.
	AllPackages []*Package

	analyzer string
	findings *[]Finding
}

// Universe returns the packages cross-package facts should resolve against:
// AllPackages when set, else Packages.
func (u *Unit) Universe() []*Package {
	if u.AllPackages != nil {
		return u.AllPackages
	}
	return u.Packages
}

// Reportf records a finding at pos.
func (u *Unit) Reportf(pos token.Pos, format string, args ...interface{}) {
	u.Report(Finding{
		Pos:     u.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a fully-built finding (the analyzer name is stamped here).
func (u *Unit) Report(f Finding) {
	f.Analyzer = u.analyzer
	*u.findings = append(*u.findings, f)
}

// All returns the xmem-vet analyzers, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{AllocFree, AtomLifecycle, AttrConflict, AttrInfer, AttrTruth, DimCheck, NoShare, SealedLib, StatsNeutral}
}

// ByNames resolves a comma-separated analyzer selection against All(),
// preserving All()'s order and rejecting unknown names.
func ByNames(names string) ([]*Analyzer, error) {
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("analysis: empty analyzer selection")
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		known := make([]string, 0, len(All()))
		for _, a := range All() {
			known = append(known, a.Name)
		}
		return nil, fmt.Errorf("analysis: unknown analyzer(s) %s (have: %s)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns the findings
// sorted by position (SortFindings).
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	return RunScoped(fset, pkgs, nil, analyzers)
}

// RunScoped is Run with an explicit universe: analyzers report only on pkgs
// but resolve cross-package facts (hot-path call targets, suppression
// markers) against universe, which must be a superset of pkgs. A nil
// universe means pkgs is the whole world.
func RunScoped(fset *token.FileSet, pkgs, universe []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		u := &Unit{Fset: fset, Packages: pkgs, AllPackages: universe, analyzer: a.Name, findings: &findings}
		a.Run(u)
	}
	SortFindings(findings)
	return findings
}

// --- XMemLib call recognition ---

// libMethod returns the XMemLib method name called by call (e.g.
// "CreateAtom", "AtomMap2D") and the receiver expression, when call is a
// method call on core.Lib (by value or pointer).
func libMethod(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", nil, false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || !isNamedIn(s.Recv(), "Lib", "internal/core") {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// Operator-class predicates over XMemLib method names.
func isMapOp(name string) bool {
	return name == "AtomMap" || name == "AtomMap2D" || name == "AtomMap3D"
}

func isUnmapOp(name string) bool {
	return name == "AtomUnmap" || name == "AtomUnmap2D" || name == "AtomUnmap3D"
}

func isAtomOp(name string) bool {
	return isMapOp(name) || isUnmapOp(name) ||
		name == "AtomActivate" || name == "AtomDeactivate"
}

// opDims returns the number of logical dimensions of a MAP/UNMAP operator,
// or 0 for non-mapping operators.
func opDims(name string) int {
	switch name {
	case "AtomMap", "AtomUnmap":
		return 1
	case "AtomMap2D", "AtomUnmap2D":
		return 2
	case "AtomMap3D", "AtomUnmap3D":
		return 3
	}
	return 0
}

// --- constant folding ---

// constUint64 folds e to a uint64 using the type-checker's constant
// evaluation.
func constUint64(info *types.Info, e ast.Expr) (uint64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Uint64Val(v)
}

// constString folds e to a string constant.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// isConst reports whether the type checker folded e to any constant.
func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// --- ordered call traversal ---

// frame is one step of a call's enclosing-statement chain: the statement at
// List[idx] of blk contains the call (possibly nested deeper).
type frame struct {
	blk *ast.BlockStmt
	idx int
}

// callSite is a call together with enough syntactic context to reason
// about execution order inside one function body.
type callSite struct {
	call *ast.CallExpr
	// chain lists the enclosing (block, statement-index) frames, outermost
	// first. Two calls in the same function are sequentially ordered when
	// they share a block frame with different indices.
	chain []frame
	// unordered is true when the call sits inside a nested function
	// literal, defer, or go statement: its execution point is not the
	// syntactic point, so chain comparisons are meaningless.
	unordered bool
}

// strictlyBefore reports whether a provably executes before b the first
// time their common enclosing block runs: they share a block frame and a's
// statement index is smaller. Unordered calls are never comparable.
func (a callSite) strictlyBefore(b callSite) bool {
	if a.unordered || b.unordered {
		return false
	}
	for _, fa := range a.chain {
		for _, fb := range b.chain {
			if fa.blk == fb.blk {
				return fa.idx < fb.idx
			}
		}
	}
	return false
}

// walkCalls invokes f for every call expression in body with its enclosing
// statement chain.
func walkCalls(body *ast.BlockStmt, f func(site callSite)) {
	walkBlockCalls(body, nil, false, f)
}

func walkBlockCalls(blk *ast.BlockStmt, chain []frame, unordered bool, f func(site callSite)) {
	for i, st := range blk.List {
		cur := append(chain[:len(chain):len(chain)], frame{blk, i})
		walkNodeCalls(st, cur, unordered, f)
	}
}

func walkNodeCalls(n ast.Node, chain []frame, unordered bool, f func(site callSite)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.BlockStmt:
			walkBlockCalls(v, chain, unordered, f)
			return false
		case *ast.FuncLit:
			walkBlockCalls(v.Body, chain, true, f)
			return false
		case *ast.DeferStmt:
			walkNodeCalls(v.Call, chain, true, f)
			return false
		case *ast.GoStmt:
			walkNodeCalls(v.Call, chain, true, f)
			return false
		case *ast.CallExpr:
			f(callSite{call: v, chain: chain, unordered: unordered})
		}
		return true
	})
}

// funcBodies yields every function body in the package: declared functions
// and methods, plus each function literal as its own scope.
func funcBodies(pkg *Package, f func(body *ast.BlockStmt)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					f(v.Body)
				}
			case *ast.FuncLit:
				f(v.Body)
			}
			return true
		})
	}
}
