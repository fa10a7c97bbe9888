package analysis

import (
	"bytes"
	"flag"
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// -update regenerates the attrinfer fix goldens (testdata/src/<fixture>/
// <fixture>.go.golden, and examples/inferdemo/main.go from its pre-fix
// copy) from the fixes attrinfer currently plans, and the findings golden
// (testdata/findings.golden.json) from what every analyzer reports over the
// fixtures. Inspect the diff before committing.
var updateGolden = flag.Bool("update", false, "rewrite the golden files")

func TestAttrInfer(t *testing.T) {
	runFixture(t, AttrInfer, "inferbad")
	runFixture(t, AttrInfer, "infergood")
	runFixture(t, AttrInfer, "inferunknown")
	runFixture(t, AttrInfer, "dupsite")
}

// TestAttrInferFixGolden is the end-to-end contract of the -fix pipeline:
// the fixes planned for the inferbad fixture must produce exactly the
// golden file, the fixed source must still type-check and be gofmt-clean,
// and a second pass must find nothing (idempotency, and no contradiction
// attrtruth can prove).
func TestAttrInferFixGolden(t *testing.T) {
	checkFixGolden(t, fixturePath("inferbad"), fixturePath("inferbad")+".golden")
}

// TestAttrInferDupSite: a site string declared in both Declare and Run
// gets one fix that rewrites both CreateAtom calls to the identical
// strengthened literal; checkFixGolden proves the fixed file type-checks
// and draws no further finding.
func TestAttrInferDupSite(t *testing.T) {
	fixed := checkFixGolden(t, fixturePath("dupsite"), fixturePath("dupsite")+".golden")
	re := regexp.MustCompile(`CreateAtom\("dupsite\.buf", (core\.Attributes\{[^}]*\})\)`)
	lits := re.FindAllSubmatch(fixed, -1)
	if len(lits) != 2 {
		t.Fatalf("fixed source has %d dupsite.buf CreateAtom calls, want 2:\n%s", len(lits), fixed)
	}
	if a, b := string(lits[0][1]), string(lits[1][1]); a != b {
		t.Errorf("sites strengthened differently:\n  Declare: %s\n  Run:     %s", a, b)
	}
	if lit := string(lits[0][1]); lit == "core.Attributes{Intensity: 90}" {
		t.Errorf("site literal not strengthened: %s", lit)
	}
}

// TestInferDemoProvenance proves the committed annotations of
// examples/inferdemo are machine output: re-applying attrinfer's fixes to
// the preserved pre-fix example must reproduce the committed file byte for
// byte. -update rewrites the example from the pre-fix file.
func TestInferDemoProvenance(t *testing.T) {
	checkFixGolden(t, filepath.Join("testdata", "inferdemo_prefix", "main.go.txt"),
		filepath.Join("..", "..", "examples", "inferdemo", "main.go"))
}

// fixturePath is the source of testdata/src/<fixture>.
func fixturePath(fixture string) string {
	return filepath.Join("testdata", "src", fixture, fixture+".go")
}

// checkFixGolden applies attrinfer's planned fixes to a scratch copy of the
// one-file package src and checks that the result equals golden,
// type-checks, is gofmt-clean, and draws no further attrinfer or attrtruth
// finding. It returns the fixed source.
func checkFixGolden(t *testing.T, src, golden string) []byte {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tmpFile := filepath.Join(tmp, "fix.go")
	if err := os.WriteFile(tmpFile, text, 0o644); err != nil {
		t.Fatal(err)
	}

	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(tmp, "fixture/fix")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(loader.Fset, []*Package{pkg}, []*Analyzer{AttrInfer})
	if len(findings) == 0 {
		t.Fatalf("attrinfer found nothing in %s", src)
	}
	for _, f := range findings {
		if len(f.SuggestedFixes) == 0 {
			t.Errorf("finding without suggested fix: %s", f)
		}
	}

	plan, err := PlanFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Unfixable != 0 {
		t.Fatalf("plan left %d finding(s) unfixable", plan.Unfixable)
	}
	got, ok := plan.Files[tmpFile]
	if !ok {
		t.Fatalf("plan edits files %v, want %s", keysOf(plan.Files), tmpFile)
	}

	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fixed %s differs from %s:\n--- got\n%s\n--- want\n%s", src, golden, got, want)
	}
	if formatted, err := format.Source(got); err != nil || !bytes.Equal(formatted, got) {
		t.Errorf("fixed %s is not gofmt-clean (err %v)", src, err)
	}

	// Apply for real and prove the result loads clean: fixes are idempotent
	// and contradict nothing attrtruth can prove.
	if err := plan.WriteFixes(); err != nil {
		t.Fatal(err)
	}
	loader2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixedPkg, err := loader2.LoadDir(tmp, "fixture/fixed")
	if err != nil {
		t.Fatalf("fixed source does not type-check: %v", err)
	}
	for _, f := range Run(loader2.Fset, []*Package{fixedPkg}, []*Analyzer{AttrInfer, AttrTruth}) {
		t.Errorf("finding after fix applied: %s", f)
	}
	return got
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestByNamesUnknown pins the -run error contract: an unknown analyzer
// name fails loudly and the message lists what is available, so a typo'd
// CI invocation can never silently run nothing.
func TestByNamesUnknown(t *testing.T) {
	if _, err := ByNames("nosuchthing"); err == nil {
		t.Fatal("ByNames(nosuchthing) succeeded, want error")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, "nosuchthing") || !strings.Contains(msg, "have:") {
			t.Errorf("error %q does not name the unknown analyzer and the available set", msg)
		}
		for _, a := range All() {
			if !strings.Contains(msg, a.Name) {
				t.Errorf("error %q omits registered analyzer %s", msg, a.Name)
			}
		}
	}
	if _, err := ByNames("attrinfer,bogus"); err == nil {
		t.Error("ByNames with one bad name among good ones succeeded, want error")
	}
	got, err := ByNames("attrtruth,attrinfer")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByNames returned %d analyzers, want 2", len(got))
	}
}
