package core

import (
	"testing"
	"unsafe"
)

func TestASTActivateDeactivate(t *testing.T) {
	var a AtomSet
	if a.Has(0) {
		t.Error("atom 0 active before activation")
	}
	a.Add(0)
	a.Add(63)
	a.Add(64)
	a.Add(255)
	for _, id := range []AtomID{0, 63, 64, 255} {
		if !a.Has(id) {
			t.Errorf("atom %d inactive after Add", id)
		}
	}
	a.Remove(64)
	if a.Has(64) {
		t.Error("atom 64 active after Remove")
	}
	if !a.Has(63) || !a.Has(255) {
		t.Error("Remove(64) disturbed neighbours")
	}
}

func TestASTOutOfRangeIsNoop(t *testing.T) {
	var a AtomSet
	for _, id := range []AtomID{MaxAtoms, MaxAtoms + 1, 0xFFFE, InvalidAtom} {
		a.Add(id) // must not panic and must not register
		if a.Has(id) {
			t.Errorf("out-of-range atom %d reported active", id)
		}
		a.Remove(id) // must not panic
	}
	if got := a.IDs(); len(got) != 0 {
		t.Errorf("IDs = %v after out-of-range activations, want none", got)
	}
}

func TestASTActiveAtoms(t *testing.T) {
	var a AtomSet
	for _, id := range []AtomID{3, 0, 200, 64} {
		a.Add(id)
	}
	got := a.IDs()
	want := []AtomID{0, 3, 64, 200}
	if len(got) != len(want) || a.Len() != len(want) {
		t.Fatalf("IDs = %v (Len %d), want %v", got, a.Len(), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestASTSizeMatchesPaper(t *testing.T) {
	// §4.2: 256 atoms -> 32 bytes.
	if n := unsafe.Sizeof(AtomSet{}); n != 32 {
		t.Errorf("AST size = %d B, want 32 B", n)
	}
}

// TestASTReset checks the context-switch reload (§4.3): installing an empty
// AST deactivates every atom the outgoing one held.
func TestASTReset(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(1, 0x1000, 512)
	u.ExecMap(33, 0x2000, 512)
	u.ExecActivate(1)
	u.ExecActivate(33)
	u.ContextSwitch(u.GAT(), new(AtomSet))
	if got := u.ActiveMappedAtoms(); len(got) != 0 {
		t.Errorf("atoms %v still active after reset", got)
	}
	if id, ok := u.Lookup(0x1000); ok {
		t.Errorf("Lookup resolved atom %d after reset", id)
	}
}
