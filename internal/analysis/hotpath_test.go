package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllocFree(t *testing.T) {
	runFixture(t, AllocFree, "allocbad")
	runFixture(t, AllocFree, "allocgood")
}

func TestStatsNeutral(t *testing.T) {
	runFixture(t, StatsNeutral, "statsbad")
	runFixture(t, StatsNeutral, "statsgood")
}

// TestHotPathReasonlessLineMarker covers the one hatch-hygiene case the
// want-comment fixtures cannot express: a reasonless //xmem:alloc-ok line
// marker occupies its whole source line, so no `want` comment can share
// the line the finding lands on. The fixture is built in a temp dir
// instead.
func TestHotPathReasonlessLineMarker(t *testing.T) {
	dir := t.TempDir()
	src := `package tmpfix

//xmem:allocfree
func grows(x []int) []int {
	return append(x, 1) //xmem:alloc-ok
}
`
	if err := os.WriteFile(filepath.Join(dir, "tmpfix.go"), []byte(src), 0o644); err != nil {
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
	pkg, err := loader.LoadDir(dir, "fixture/tmpfix")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(loader.Fset, []*Package{pkg}, []*Analyzer{AllocFree})
	// The reasonless marker still suppresses the append (so the only
	// finding is the hygiene one), but it must demand a justification.
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the reasonless-marker finding: %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "suppression without a reason") {
		t.Errorf("finding = %s, want a reasonless-suppression diagnostic", findings[0])
	}
}
