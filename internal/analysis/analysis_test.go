package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixture sources:
//
//	lib.AtomMap(id, 0, 0) // want "covers no data"
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file   string
	line   int
	substr string
}

// runFixture loads testdata/src/<name> as a standalone package, runs the
// one analyzer over it, and checks the findings against the fixture's
// `// want` comments — every expectation must be met, and every finding
// must be expected.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}

	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				wants = append(wants, expectation{pos.Filename, pos.Line, m[1]})
			}
		}
	}

	findings := Run(loader.Fset, []*Package{pkg}, []*Analyzer{a})
	matched := make([]bool, len(findings))
	for _, w := range wants {
		found := false
		for i, f := range findings {
			if f.Pos.Filename == w.file && f.Pos.Line == w.line && strings.Contains(f.Message, w.substr) {
				found = true
				matched[i] = true
			}
		}
		if !found {
			t.Errorf("%s:%d: want finding containing %q, got none", filepath.Base(w.file), w.line, w.substr)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestAtomLifecycle(t *testing.T) {
	runFixture(t, AtomLifecycle, "lifecyclebad")
	runFixture(t, AtomLifecycle, "lifecyclegood")
	runFixture(t, AtomLifecycle, "lifecycleunknown")
}

func TestAttrConflict(t *testing.T) {
	runFixture(t, AttrConflict, "attrbad")
	runFixture(t, AttrConflict, "attrgood")
	runFixture(t, AttrConflict, "attrunknown")
}

func TestDimCheck(t *testing.T) {
	runFixture(t, DimCheck, "dimbad")
	runFixture(t, DimCheck, "dimgood")
	runFixture(t, DimCheck, "dimunknown")
}

func TestAttrTruth(t *testing.T) {
	runFixture(t, AttrTruth, "truthbad")
	runFixture(t, AttrTruth, "truthgood")
	runFixture(t, AttrTruth, "truthunknown")
}

func TestNoShare(t *testing.T) {
	runFixture(t, NoShare, "sharebad")
	runFixture(t, NoShare, "sharegood")
}

func TestSealedLib(t *testing.T) {
	runFixture(t, SealedLib, "sealbad")
	runFixture(t, SealedLib, "sealgood")
	runFixture(t, SealedLib, "sealunknown")
}

// TestFindingsGoldenJSON pins every finding, and every suggested fix, that
// the analyzers of All() emit over each fixture package under testdata/src:
// wording, positions, fix edits and the xmem-vet/v2 envelope are all
// load-bearing for consumers (xmem-inspect -vet, CI trend tracking). Each
// fixture gets its own Run, as runFixture gives it, and the findings land
// in one report, which must also round-trip through ReadVetReport's schema
// validation. -update regenerates testdata/findings.golden.json.
func TestFindingsGoldenJSON(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", d.Name()), "fixture/"+d.Name())
		if err != nil {
			t.Fatalf("loading %s: %v", d.Name(), err)
		}
		findings = append(findings, Run(loader.Fset, []*Package{pkg}, All())...)
	}
	SortFindings(findings)

	// Root is left empty so file paths stay the loader-relative fixture
	// paths, which are stable across checkouts.
	report := NewVetReport("fixture", "", All(), findings)
	var buf bytes.Buffer
	if err := report.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadVetReport(buf.Bytes()); err != nil {
		t.Fatalf("report does not validate against its own schema: %v", err)
	}

	goldenPath := filepath.Join("testdata", "findings.golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("findings differ from golden (rerun with -update if intended):\n--- got\n%s\n--- want\n%s", buf.Bytes(), want)
	}
}

// loadModule loads every package of the module, as xmem-vet ./... does.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	return loader, pkgs
}

// TestRepoClean runs every analyzer over the whole module — the same sweep
// `go run ./cmd/xmem-vet ./...` performs — and requires zero findings.
func TestRepoClean(t *testing.T) {
	loader, pkgs := loadModule(t)
	for _, f := range Run(loader.Fset, pkgs, All()) {
		t.Errorf("finding on clean repo: %s", f)
	}
}

// TestDirectivesKnown fails on any //xmem: directive in the module that no
// analyzer reads: a misspelt name such as //xmem:alocfree would otherwise
// drop a contract root, or an exemption, without a word.
func TestDirectivesKnown(t *testing.T) {
	known := map[string]bool{
		"allocfree": true, "alloc-ok": true, // allocfree
		"statsneutral": true, "stats-ok": true, // statsneutral
		"share-ok": true, // noshare
		"noinfer":  true, // attrinfer
	}
	loader, pkgs := loadModule(t)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if d, ok := parseDirective(c); ok && !known[d.name] {
						t.Errorf("%s: no analyzer reads //xmem:%s", loader.Fset.Position(d.pos), d.name)
					}
				}
			}
		}
	}
}
