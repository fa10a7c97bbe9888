package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// -update regenerates the attrinfer fix goldens (testdata/src/<fixture>/
// <fixture>.go.golden) from the fixes attrinfer currently plans. Inspect
// the diff before committing.
var updateGolden = flag.Bool("update", false, "rewrite attrinfer golden files")

func TestAttrInfer(t *testing.T) {
	runFixture(t, AttrInfer, "inferbad")
	runFixture(t, AttrInfer, "infergood")
	runFixture(t, AttrInfer, "inferunknown")
	runFixture(t, AttrInfer, "dupsite")
}

// TestAttrInferFixGolden is the end-to-end contract of the -fix pipeline:
// the fixes planned for the inferbad fixture must produce exactly the
// golden file, the fixed source must still type-check, and a second
// attrinfer pass over it must find nothing (idempotency).
func TestAttrInferFixGolden(t *testing.T) {
	checkFixGolden(t, "inferbad")
}

// TestAttrInferDupSite: a site string declared in both Declare and Run
// gets one fix that rewrites both CreateAtom calls to the identical
// strengthened literal; checkFixGolden proves the fixed file type-checks
// and draws no further attrinfer finding.
func TestAttrInferDupSite(t *testing.T) {
	fixed := checkFixGolden(t, "dupsite")
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

// checkFixGolden applies attrinfer's planned fixes to a scratch copy of
// testdata/src/<fixture>/<fixture>.go and checks that the result equals
// the fixture's .golden file, type-checks, and draws no further attrinfer
// finding. It returns the fixed source.
func checkFixGolden(t *testing.T, fixture string) []byte {
	t.Helper()
	fixtureDir := filepath.Join("testdata", "src", fixture)
	src, err := os.ReadFile(filepath.Join(fixtureDir, fixture+".go"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	tmpFile := filepath.Join(tmp, fixture+".go")
	if err := os.WriteFile(tmpFile, src, 0o644); err != nil {
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
	pkg, err := loader.LoadDir(tmp, "fixture/"+fixture)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(loader.Fset, []*Package{pkg}, []*Analyzer{AttrInfer})
	if len(findings) == 0 {
		t.Fatalf("attrinfer found nothing on the %s fixture", fixture)
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

	goldenPath := filepath.Join(fixtureDir, fixture+".go.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fixed fixture differs from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}

	// Apply for real and prove the result loads clean: fixes are idempotent.
	if err := plan.WriteFixes(); err != nil {
		t.Fatal(err)
	}
	loader2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixedPkg, err := loader2.LoadDir(tmp, "fixture/"+fixture+"fixed")
	if err != nil {
		t.Fatalf("fixed source does not type-check: %v", err)
	}
	for _, f := range Run(loader2.Fset, []*Package{fixedPkg}, []*Analyzer{AttrInfer}) {
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
