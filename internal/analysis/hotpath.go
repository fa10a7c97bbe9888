package analysis

// This file is the shared engine of the two hot-path contract provers
// (allocfree, statsneutral). Both work the same way: functions carrying a
// contract directive in their doc comment are roots; the prover lowers the
// whole loaded module to ssalite effect streams and walks the static call
// graph breadth-first from each root, reporting every effect the contract
// forbids with the call chain that reaches it. Escape hatches come in two
// grains: a function-level //xmem:alloc-ok / //xmem:stats-ok directive
// (with a mandatory reason) exempts an audited cold path and everything
// below it; the same marker on a source line (or the line above it)
// suppresses the instructions on that line, and when the instruction is a
// call, prunes the walk into it.

import (
	"go/token"
	"go/types"
	"strings"

	"xmem/internal/analysis/ssalite"
)

// hotPathChecks parameterizes the shared walker for one contract.
type hotPathChecks struct {
	// root is the contract directive name; hatch its audited escape.
	root, hatch string
	// noSourceWhat finishes "cannot be proven …" for callees without
	// lowered bodies ("allocation-free", "stats-neutral").
	noSourceWhat string
	// instr inspects a non-call instruction and returns the violation text
	// ("" = allowed by this contract).
	instr func(in ssalite.Instr) string
	// noSourceOK reports whether a callee with no body in the analyzed
	// packages is provably safe from its type signature alone.
	noSourceOK func(callee *types.Func) bool
	// packedCallCovered: when a variadic call already produced a pack
	// allocation at the same site, skip the companion unresolved/no-source
	// call finding (one finding per call is enough for an allocation
	// contract).
	packedCallCovered bool
}

// selectedFileSet returns the files of the packages under analysis, or nil
// when the whole universe is selected.
func selectedFileSet(u *Unit) map[string]bool {
	if u.AllPackages == nil {
		return nil
	}
	m := make(map[string]bool)
	for _, pkg := range u.Packages {
		for _, f := range pkg.Files {
			m[u.Fset.Position(f.Pos()).Filename] = true
		}
	}
	return m
}

func inSelected(u *Unit, sel map[string]bool, pos token.Pos) bool {
	return sel == nil || sel[u.Fset.Position(pos).Filename]
}

// hotPathNode is one BFS entry: a function and the root→here display chain.
type hotPathNode struct {
	fn    *ssalite.Func
	chain []string
}

// runHotPathProver is the shared analyzer body.
func runHotPathProver(u *Unit, c hotPathChecks) {
	var srcs []ssalite.Source
	for _, pkg := range u.Universe() {
		srcs = append(srcs, ssalite.Source{Pkg: pkg.Types, Info: pkg.Info, Files: pkg.Files})
	}
	prog := ssalite.Build(u.Fset, srcs)
	hatches := lineDirectives(u, c.hatch)
	sel := selectedFileSet(u)

	// Hatch hygiene: every suppression must say why it is safe.
	for _, fn := range prog.Funcs {
		if !inSelected(u, sel, fn.Pos) {
			continue
		}
		if d, ok := funcDirective(fn.Doc, c.hatch); ok && d.reason == "" {
			u.Reportf(fn.Pos, "//xmem:%s suppression without a reason: say why %s is exempt from the %s contract",
				c.hatch, fn.Name, c.root)
		}
	}
	for _, d := range hatches.list {
		if d.reason == "" && inSelected(u, sel, d.pos) {
			u.Reportf(d.pos, "//xmem:%s suppression without a reason: say why this line is exempt from the %s contract",
				c.hatch, c.root)
		}
	}

	// BFS from each root gives shortest call chains; the global dedup means
	// a shared helper's violation is reported once, attributed to the first
	// root (in source order) that reaches it.
	reported := make(map[string]bool)
	for _, root := range prog.Funcs {
		if !inSelected(u, sel, root.Pos) {
			continue
		}
		if _, ok := funcDirective(root.Doc, c.root); !ok {
			continue
		}
		walkHotPathRoot(u, prog, hatches, c, root, reported)
	}
}

func walkHotPathRoot(u *Unit, prog *ssalite.Program, hatches *lineMarks, c hotPathChecks, root *ssalite.Func, reported map[string]bool) {
	report := func(nd hotPathNode, pos token.Pos, what string) {
		key := u.Fset.Position(pos).String() + "|" + what
		if reported[key] {
			return
		}
		reported[key] = true
		via := ""
		if len(nd.chain) > 1 {
			via = " via " + strings.Join(nd.chain, " → ")
		}
		u.Reportf(pos, "//xmem:%s function %s %s%s (fix it or mark an audited exception //xmem:%s <reason>)",
			c.root, nd.chain[0], what, via, c.hatch)
	}

	visited := map[*ssalite.Func]bool{root: true}
	queue := []hotPathNode{{fn: root, chain: []string{root.Name}}}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		for _, in := range nd.fn.Instrs {
			if hatches.exempts(u.Fset, in.Pos) {
				continue // audited line; for calls this also prunes the walk
			}
			if in.Kind != ssalite.KindCall {
				if what := c.instr(in); what != "" {
					report(nd, in.Pos, what)
				}
				continue
			}
			if in.Callee == nil {
				if in.VariadicPacked && c.packedCallCovered {
					continue
				}
				report(nd, in.Pos, "reaches a call it cannot resolve ("+in.Detail+")")
				continue
			}
			callee := prog.FuncOf(in.Callee)
			if callee == nil {
				if c.noSourceOK(in.Callee) {
					continue
				}
				if in.VariadicPacked && c.packedCallCovered {
					continue
				}
				report(nd, in.Pos, "calls "+ssalite.DisplayName(in.Callee)+
					", which has no source in the analyzed packages and cannot be proven "+c.noSourceWhat)
				continue
			}
			if _, hatched := funcDirective(callee.Doc, c.hatch); hatched {
				continue // audited cold path: the hatch covers its subtree
			}
			if !visited[callee] {
				visited[callee] = true
				chain := append(nd.chain[:len(nd.chain):len(nd.chain)], callee.Name)
				queue = append(queue, hotPathNode{fn: callee, chain: chain})
			}
		}
	}
}
