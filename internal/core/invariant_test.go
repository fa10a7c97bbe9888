package core

import (
	"strings"
	"testing"

	"xmem/internal/mem"
)

func newCheckedLib() (*Lib, *InvariantChecker) {
	l := NewLib(newTestAMU())
	return l, l.EnableInvariantChecks()
}

func TestInvariantCleanLifecycle(t *testing.T) {
	l, c := newCheckedLib()
	id := l.CreateAtom("clean", Attributes{Type: TypeFloat64})
	l.AtomMap(id, 0, 2*mem.PageBytes)
	l.AtomActivate(id)
	if got, ok := l.amu.Lookup(0); !ok || got != id {
		t.Fatalf("lookup = %d,%v want %d,true", got, ok, id)
	}
	l.AtomDeactivate(id)
	l.AtomUnmap(id, 0, 2*mem.PageBytes)
	if w := c.Warnings(); len(w) != 0 {
		t.Fatalf("clean lifecycle produced warnings: %v", w)
	}
	if c.Counts().Audits == 0 {
		t.Fatal("no structural audits ran")
	}
	if err := c.CheckAll(l); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantInvalidOpPanics(t *testing.T) {
	l, _ := newCheckedLib()
	defer func() {
		if recover() == nil {
			t.Fatal("op on invalid atom ID did not panic under the checker")
		}
		if got := l.Stats().InvalidOps; got != 1 {
			t.Fatalf("InvalidOps = %d, want 1", got)
		}
	}()
	l.AtomActivate(InvalidAtom)
}

func TestInvalidOpsCountedWithoutChecker(t *testing.T) {
	l := NewLib(newTestAMU())
	l.AtomMap(42, 0, mem.PageBytes) // never created
	l.AtomActivate(InvalidAtom)
	if got := l.Stats().InvalidOps; got != 2 {
		t.Fatalf("InvalidOps = %d, want 2", got)
	}
	if got := l.Stats().RuntimeOps; got != 0 {
		t.Fatalf("RuntimeOps = %d, want 0: invalid ops must not count as executed", got)
	}
}

func TestInvariantActivateUnmapped(t *testing.T) {
	l, c := newCheckedLib()
	id := l.CreateAtom("act", Attributes{})
	l.AtomActivate(id)
	if got := c.Counts().ActivateUnmapped; got != 1 {
		t.Fatalf("ActivateUnmapped = %d, want 1", got)
	}
}

func TestInvariantUnmapNoop(t *testing.T) {
	l, c := newCheckedLib()
	id := l.CreateAtom("un", Attributes{})
	l.AtomUnmap(id, 0, mem.PageBytes)
	if got := c.Counts().UnmapNoop; got != 1 {
		t.Fatalf("UnmapNoop = %d, want 1", got)
	}
	// A map followed by a full unmap is NOT a no-op even though zero bytes
	// remain afterwards.
	l.AtomMap(id, 0, mem.PageBytes)
	l.AtomUnmap(id, 0, mem.PageBytes)
	if got := c.Counts().UnmapNoop; got != 1 {
		t.Fatalf("UnmapNoop after balanced pair = %d, want still 1", got)
	}
}

func TestInvariantDimAudits(t *testing.T) {
	l, c := newCheckedLib()
	id := l.CreateAtom("dims", Attributes{})
	l.AtomMap(id, 0, 0) // zero-sized
	l.AtomMap2D(id, 0, 128, 4, 64)
	l.AtomMap3D(id, mem.PageBytes, 8, 8, 2, 8, 32)
	counts := c.Counts()
	if counts.ZeroSizedMaps != 1 {
		t.Errorf("ZeroSizedMaps = %d, want 1", counts.ZeroSizedMaps)
	}
	if counts.DimViolations != 2 {
		t.Errorf("DimViolations = %d, want 2", counts.DimViolations)
	}
}

func TestInvariantSealedCreate(t *testing.T) {
	l, c := newCheckedLib()
	l.CreateAtom("early", Attributes{})
	seg := l.Segment()
	if len(seg) == 0 || !l.Sealed() {
		t.Fatal("Segment() did not seal the lib")
	}
	l.CreateAtom("early", Attributes{}) // repeat site: fine after seal
	if got := c.Counts().SealedCreates; got != 0 {
		t.Fatalf("SealedCreates after repeat-site create = %d, want 0", got)
	}
	l.CreateAtom("late", Attributes{})
	if got := c.Counts().SealedCreates; got != 1 {
		t.Fatalf("SealedCreates = %d, want 1", got)
	}
	if w := c.Warnings(); len(w) == 0 || !strings.Contains(w[len(w)-1], "atom segment") {
		t.Fatalf("missing sealed-create warning, got %v", w)
	}
}

func TestInvariantAttrConflict(t *testing.T) {
	l, c := newCheckedLib()
	l.CreateAtom("site", Attributes{Reuse: 1})
	l.CreateAtom("site", Attributes{Reuse: 2})
	if got := c.Counts().AttrConflicts; got != 1 {
		t.Fatalf("AttrConflicts = %d, want 1", got)
	}
	if got := l.Stats().AttrConflicts; got != 1 {
		t.Fatalf("LibStats.AttrConflicts = %d, want 1", got)
	}
}

// TestInvariantStructuralDetectsCorruption corrupts each metadata table in
// turn and asserts CheckAll notices.
func TestInvariantStructuralDetectsCorruption(t *testing.T) {
	t.Run("lib-site-index", func(t *testing.T) {
		l, c := newCheckedLib()
		l.CreateAtom("a", Attributes{})
		l.bySite["ghost"] = 99
		if err := c.CheckAll(l); err == nil {
			t.Fatal("corrupted site index not detected")
		}
	})
	t.Run("aam-count", func(t *testing.T) {
		l, c := newCheckedLib()
		id := l.CreateAtom("a", Attributes{})
		l.AtomMap(id, 0, mem.PageBytes)
		*l.amu.aam.mappedChunks.At(id)++
		if err := c.CheckAll(l); err == nil {
			t.Fatal("corrupted AAM chunk count not detected")
		}
	})
	// The AAM's slab: every block is named by exactly one directory entry
	// or pooled empty.
	for name, corrupt := range map[string]func(m *AAM){
		"aam-shared-block": func(m *AAM) { m.dir = append(m.dir, m.dir[0]) },
		"aam-leaked-block": func(m *AAM) { m.dir[1] = 0 },
		"aam-dirty-pooled-block": func(m *AAM) {
			m.freeBlocks = append(m.freeBlocks, uint32(len(m.mapped)))
			m.mapped = append(m.mapped, 0)
			m.atoms = append(m.atoms, make([]AtomID, m.chunksPerPage)...) // atom 0, not InvalidAtom
		},
	} {
		t.Run(name, func(t *testing.T) {
			l, c := newCheckedLib()
			id := l.CreateAtom("a", Attributes{})
			l.AtomMap(id, 0, 2*mem.PageBytes)
			if err := c.CheckAll(l); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			corrupt(l.amu.aam)
			if err := c.CheckAll(l); err == nil {
				t.Fatal("corrupted AAM slab not detected")
			}
		})
	}
	t.Run("ast-uncreated-active", func(t *testing.T) {
		l, c := newCheckedLib()
		l.CreateAtom("a", Attributes{})
		l.amu.ast.Add(40)
		if err := c.CheckAll(l); err == nil {
			t.Fatal("activation of uncreated atom not detected")
		}
	})
	t.Run("stale-alb", func(t *testing.T) {
		l, c := newCheckedLib()
		id := l.CreateAtom("a", Attributes{})
		l.AtomMap(id, 0, mem.PageBytes)
		l.amu.Lookup(0) // populate the ALB
		// A raw AAM unmap bypasses the AMU's ALB invalidation.
		l.amu.aam.Unmap(0, mem.PageBytes, id)
		if err := c.CheckAll(l); err == nil {
			t.Fatal("stale ALB entry not detected")
		}
	})
}

func TestInvariantWarningCap(t *testing.T) {
	l, c := newCheckedLib()
	id := l.CreateAtom("cap", Attributes{})
	for i := 0; i < 2*maxWarnings; i++ {
		l.AtomActivate(id) // unmapped every time
	}
	if got := len(c.Warnings()); got != maxWarnings {
		t.Fatalf("warnings retained = %d, want capped at %d", got, maxWarnings)
	}
	if got := c.Counts().ActivateUnmapped; got != 2*maxWarnings {
		t.Fatalf("ActivateUnmapped = %d, want %d (counters keep counting)", got, 2*maxWarnings)
	}
}
