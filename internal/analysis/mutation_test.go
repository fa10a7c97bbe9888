package analysis

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotPathMutationDifferential proves the static provers and the runtime
// gates agree on the hot-path contracts: a seeded violation must be caught
// by BOTH layers, so neither can silently rot. Four mutations are planted
// in a scratch copy of the module:
//
//   - an append seeded into AMU.Lookup (//xmem:allocfree) must be reported
//     by the allocfree prover AND fail the runtime alloc-gate
//     (TestHotPathLookupAllocFree, AllocsPerRun == 0);
//   - a stats store seeded into AMU.Peek (//xmem:statsneutral) must be
//     reported by the statsneutral prover AND fail the Peek-neutrality gate
//     (TestSpanTimingNeutral, which compares the full AMUStats of a traced
//     and an untraced run);
//   - an atom activation seeded into AMU.Peek must be reported by the
//     statsneutral prover as a store to the AST's AtomSet;
//   - an AAM chunk-count decrement seeded into AMU.Peek must be reported
//     as a store to the AAM's PerAtom table. The write goes through the
//     pointer PerAtom.At returns, so the prover sees it only in At.
//
// No runtime gate compares AST state or chunk counts, so the last two
// cases are prover-only.
//
// The differential runs `go test` twice in the scratch copy, so it is
// skipped under -short.
func TestHotPathMutationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs go test in a module copy; skipped under -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("allocfree", func(t *testing.T) {
		scratch := copyModule(t, root)
		seedAfter(t, filepath.Join(scratch, "internal", "core", "amu.go"),
			"func (u *AMU) Lookup(pa mem.Addr) (AtomID, bool) {",
			"\tvar seededLeak []uint64\n\tseededLeak = append(seededLeak, uint64(pa))\n\t_ = seededLeak\n")
		assertProverReports(t, scratch, AllocFree,
			"(*core.AMU).Lookup", "append may grow its backing array")
		assertGateFails(t, scratch, "TestHotPathLookupAllocFree", "./internal/core/")
	})

	t.Run("statsneutral", func(t *testing.T) {
		scratch := copyModule(t, root)
		seedAfter(t, filepath.Join(scratch, "internal", "core", "amu.go"),
			"func (u *AMU) Peek(pa mem.Addr) (AtomID, bool) {",
			"\tu.stats.Lookups++\n")
		assertProverReports(t, scratch, StatsNeutral,
			"(*core.AMU).Peek", "mutates core.AMUStats state")
		assertGateFails(t, scratch, "TestSpanTimingNeutral", "./internal/sim/")
	})

	t.Run("statsneutral-ast", func(t *testing.T) {
		scratch := copyModule(t, root)
		seedAfter(t, filepath.Join(scratch, "internal", "core", "amu.go"),
			"func (u *AMU) Peek(pa mem.Addr) (AtomID, bool) {",
			"\tu.ast.Add(0)\n")
		assertProverReports(t, scratch, StatsNeutral,
			"(*core.AMU).Peek", "mutates core.AtomSet state")
	})

	t.Run("statsneutral-peratom", func(t *testing.T) {
		scratch := copyModule(t, root)
		seedAfter(t, filepath.Join(scratch, "internal", "core", "amu.go"),
			"func (u *AMU) Peek(pa mem.Addr) (AtomID, bool) {",
			"\tu.aam.decMapped(0)\n")
		assertProverReports(t, scratch, StatsNeutral,
			"(*core.AMU).Peek", "mutates core.PerAtom state")
	})
}

// copyModule clones the module into a temp dir, leaving out .git and the
// results tree (same exclusions as scripts/infer_validate.sh).
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || rel == "results" {
				return filepath.SkipDir
			}
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		src, err := os.Open(path)
		if err != nil {
			return err
		}
		defer src.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, src); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}

// seedAfter inserts text on a fresh line right after the line containing
// anchor, failing the test if the anchor is missing or ambiguous.
func seedAfter(t *testing.T, file, anchor, insert string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	content := string(data)
	if strings.Count(content, anchor) != 1 {
		t.Fatalf("anchor %q found %d times in %s, want exactly one",
			anchor, strings.Count(content, anchor), file)
	}
	at := strings.Index(content, anchor) + len(anchor)
	nl := strings.IndexByte(content[at:], '\n')
	if nl < 0 {
		t.Fatalf("no newline after anchor in %s", file)
	}
	at += nl + 1
	if err := os.WriteFile(file, []byte(content[:at]+insert+content[at:]), 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertProverReports loads the mutated copy and requires the analyzer to
// report a finding naming the mutated function with the expected violation.
func assertProverReports(t *testing.T, root string, a *Analyzer, fn, violation string) {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading mutated copy: %v", err)
	}
	findings := Run(loader.Fset, pkgs, []*Analyzer{a})
	for _, f := range findings {
		if strings.Contains(f.Message, fn) && strings.Contains(f.Message, violation) {
			return
		}
	}
	t.Fatalf("%s missed the seeded violation (%s in %s); findings: %v",
		a.Name, violation, fn, findings)
}

// assertGateFails runs the named runtime gate in the mutated copy and
// requires it to fail.
func assertGateFails(t *testing.T, root, run, pkg string) {
	t.Helper()
	cmd := exec.Command("go", "test", "-count=1", "-run", run, pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("runtime gate %s passed on the mutated copy; the static and dynamic layers disagree:\n%s", run, out)
	}
	if !strings.Contains(string(out), "FAIL") {
		t.Fatalf("go test -run %s did not run to a test failure: %v\n%s", run, err, out)
	}
}
