// Command xmem-vet statically checks callers of the XMemLib API against the
// Atom contract of the paper: operator calls on AtomIDs no CreateAtom
// produced, unbalanced or mis-dimensioned MAP/UNMAP pairs, ACTIVATE before
// MAP, conflicting attributes for one creation site, and CreateAtom after
// the atom segment has been emitted.
//
// It also proves the hot-path contracts: the allocfree analyzer verifies
// that every //xmem:allocfree function (the AMU lookup path) and everything
// it reaches through the static call graph performs no heap allocation, and
// the statsneutral analyzer verifies that //xmem:statsneutral functions
// (the Peek family and the span tracer's stage recorders) transitively
// mutate no stats, counter, or LRU state. Audited exceptions are written in
// the source as //xmem:alloc-ok / //xmem:stats-ok with a mandatory reason;
// see DESIGN.md, "Hot-path contracts".
//
// Usage:
//
//	xmem-vet [-run analyzer[,analyzer]] [-json] [-fix] [-fix-dry] [-list] [packages]
//
// Package patterns are module-relative: "./..." (everything), "dir/..."
// (a subtree), or an exact directory ("examples/matvec"). With no
// arguments the whole module is checked. -run restricts the run to the
// named analyzers; -list prints every registered analyzer with its
// one-line doc and exits; -json emits findings as the stable xmem-vet/v2
// schema (consumable by xmem-inspect -vet) instead of text. -fix applies
// every machine-applicable suggested fix (attrinfer) in place; -fix-dry
// previews the same edits as a diff without writing anything — empty
// output means a second application would change nothing (idempotency).
// The exit status is 1 when findings are reported (for -fix/-fix-dry:
// when findings remain that no fix resolves), 2 when the module cannot be
// loaded or a flag is invalid.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xmem/internal/analysis"
)

func main() {
	var (
		runFlag    = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		jsonFlag   = flag.Bool("json", false, "emit findings as xmem-vet/v2 JSON on stdout")
		fixFlag    = flag.Bool("fix", false, "apply machine-applicable suggested fixes in place")
		fixDryFlag = flag.Bool("fix-dry", false, "print the suggested-fix diff without writing files")
		listFlag   = flag.Bool("list", false, "list registered analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xmem-vet [-run analyzer[,analyzer]] [-json] [-fix] [-fix-dry] [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *fixFlag && *fixDryFlag {
		fatal(fmt.Errorf("-fix and -fix-dry are mutually exclusive"))
	}
	if (*fixFlag || *fixDryFlag) && *jsonFlag {
		fatal(fmt.Errorf("-json cannot be combined with -fix/-fix-dry"))
	}

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *runFlag != "" {
		var err error
		analyzers, err = analysis.ByNames(*runFlag)
		if err != nil {
			fatal(err)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	allPkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}
	pkgs := selectPackages(allPkgs, loader.ModulePath(), root, wd, flag.Args())
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages match %v", flag.Args()))
	}

	// The full load stays available as the resolution universe so the
	// interprocedural provers (allocfree, statsneutral) see callee bodies
	// in packages outside the selection.
	findings := analysis.RunScoped(loader.Fset, pkgs, allPkgs, analyzers)

	if *fixFlag || *fixDryFlag {
		plan, err := analysis.PlanFixes(findings)
		if err != nil {
			fatal(err)
		}
		if *fixDryFlag {
			display := func(file string) string {
				if rel, relErr := filepath.Rel(root, file); relErr == nil && !strings.HasPrefix(rel, "..") {
					return filepath.ToSlash(rel)
				}
				return file
			}
			fmt.Print(plan.DiffFixes(display))
		} else {
			if err := plan.WriteFixes(); err != nil {
				fatal(err)
			}
			files := make([]string, 0, len(plan.Files))
			for file := range plan.Files {
				files = append(files, file)
			}
			sort.Strings(files)
			for _, file := range files {
				if rel, relErr := filepath.Rel(root, file); relErr == nil {
					fmt.Printf("fixed %s\n", filepath.ToSlash(rel))
				}
			}
		}
		if plan.Unfixable > 0 {
			fmt.Fprintf(os.Stderr, "xmem-vet: %d finding(s) without a suggested fix remain\n", plan.Unfixable)
			os.Exit(1)
		}
		return
	}

	if *jsonFlag {
		report := analysis.NewVetReport(loader.ModulePath(), root, analyzers, findings)
		if err := report.Write(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xmem-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// selectPackages filters the loaded packages by the command-line patterns,
// resolved relative to the invocation directory.
func selectPackages(pkgs []*analysis.Package, modPath, root, wd string, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	keep := make([]*analysis.Package, 0, len(pkgs))
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			if matchPattern(pkg.Path, modPath, root, wd, pat) {
				keep = append(keep, pkg)
				break
			}
		}
	}
	return keep
}

// matchPattern reports whether the package import path matches one pattern.
func matchPattern(pkgPath, modPath, root, wd, pat string) bool {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "." || pat == "" {
			pat = "."
		}
	}
	// Resolve the pattern to an import path.
	var want string
	switch {
	case pat == ".":
		rel, err := filepath.Rel(root, wd)
		if err != nil {
			return false
		}
		want = joinImport(modPath, filepath.ToSlash(rel))
	case strings.HasPrefix(pat, "./"):
		rel, err := filepath.Rel(root, filepath.Join(wd, pat))
		if err != nil {
			return false
		}
		want = joinImport(modPath, filepath.ToSlash(rel))
	case pat == modPath || strings.HasPrefix(pat, modPath+"/"):
		want = pat
	default:
		want = joinImport(modPath, pat)
	}
	if pkgPath == want {
		return true
	}
	return recursive && strings.HasPrefix(pkgPath, want+"/")
}

func joinImport(modPath, rel string) string {
	rel = strings.TrimPrefix(rel, "./")
	if rel == "." || rel == "" {
		return modPath
	}
	return modPath + "/" + rel
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xmem-vet: %v\n", err)
	os.Exit(2)
}
