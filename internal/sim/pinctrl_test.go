package sim

import (
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// pinHarness builds a machine with the XMem cache controller and a set of
// pre-declared atoms, returning hooks to drive the AMU directly.
func pinHarness(t *testing.T, atoms []xm.Atom, l3 uint64) *Machine {
	t.Helper()
	cfg := testConfig()
	cfg.L3.SizeBytes = l3
	cfg.XMemCache = true
	w := workload.Workload{Name: "harness", Run: func(p workload.Program) {}}
	side, err := buildMemory(&MultiConfig{Core: cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := buildMachine(&cfg, w, atoms, side, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pinAtoms() []xm.Atom {
	return []xm.Atom{
		{ID: 0, Name: "hot", Attrs: xm.Attributes{Reuse: 255, Pattern: xm.PatternRegular, StrideBytes: 64}},
		{ID: 1, Name: "warm", Attrs: xm.Attributes{Reuse: 100, Pattern: xm.PatternRegular, StrideBytes: 64}},
		{ID: 2, Name: "stream", Attrs: xm.Attributes{Reuse: 0, Pattern: xm.PatternRegular, StrideBytes: 64}},
		{ID: 3, Name: "cool", Attrs: xm.Attributes{Reuse: 50, Pattern: xm.PatternRegular, StrideBytes: 64}},
	}
}

func mallocAndMap(t *testing.T, m *Machine, id xm.AtomID, size uint64) mem.Addr {
	t.Helper()
	va := m.Malloc("r", size, id)
	m.lib.AtomMap(id, va, size)
	m.lib.AtomActivate(id)
	return va
}

func TestPinControllerGreedyByReuse(t *testing.T) {
	m := pinHarness(t, pinAtoms(), 64<<10) // budget = 48KB
	mallocAndMap(t, m, 0, 16<<10)          // hot fits
	mallocAndMap(t, m, 1, 16<<10)          // warm fits too (total 32K <= 48K)
	mallocAndMap(t, m, 2, 16<<10)          // zero reuse: never a candidate

	if !m.pins.pinned.Has(0) || !m.pins.pinned.Has(1) {
		t.Errorf("pinned = %v; hot and warm must both be pinned", m.pins.pinned.IDs())
	}
	if m.pins.pinned.Has(2) {
		t.Error("zero-reuse stream was pinned")
	}
}

func TestPinControllerBudgetOrder(t *testing.T) {
	m := pinHarness(t, pinAtoms(), 64<<10) // budget 48KB
	mallocAndMap(t, m, 0, 40<<10)          // hot consumes most of the budget
	mallocAndMap(t, m, 1, 40<<10)          // warm straddles the limit: still pinned (§5.1)
	mallocAndMap(t, m, 3, 40<<10)          // cool arrives after the budget is spent

	if !m.pins.pinned.Has(0) {
		t.Error("highest-reuse atom not pinned")
	}
	if !m.pins.pinned.Has(1) {
		t.Error("straddling second atom should be pinned (pin part, prefetch the rest)")
	}
	if m.pins.pinned.Has(3) {
		t.Error("budget exhausted: cool must not be pinned")
	}
}

func TestPinControllerStraddlingAtomPinned(t *testing.T) {
	// An atom larger than the whole budget is still pinned (pin part,
	// prefetch the rest, §5.1).
	m := pinHarness(t, pinAtoms(), 64<<10)
	mallocAndMap(t, m, 0, 256<<10)
	if !m.pins.pinned.Has(0) {
		t.Error("straddling atom not pinned")
	}
}

func TestPinControllerDeactivateUnpins(t *testing.T) {
	m := pinHarness(t, pinAtoms(), 64<<10)
	mallocAndMap(t, m, 0, 16<<10)
	if !m.pins.pinned.Has(0) {
		t.Fatal("setup: not pinned")
	}
	m.lib.AtomDeactivate(0)
	if m.pins.pinned.Has(0) {
		t.Error("deactivated atom still pinned")
	}
	if m.xmemPf.Pinned(0) {
		t.Error("prefetcher still treats atom as pinned")
	}
}

func TestPinControllerClassifierUsesPins(t *testing.T) {
	m := pinHarness(t, pinAtoms(), 64<<10)
	va := mallocAndMap(t, m, 0, 16<<10)
	pa, _ := m.as.Translate(va)
	ins := m.classifyL3(pa, mem.Read)
	if !ins.Pin || ins.Atom != 0 {
		t.Errorf("classify(hot) = %+v, want pinned atom 0", ins)
	}

	vaS := mallocAndMap(t, m, 2, 16<<10)
	paS, _ := m.as.Translate(vaS)
	insS := m.classifyL3(paS, mem.Read)
	if insS.Pin {
		t.Error("stream atom classified as pinned")
	}
	// Expressed zero-reuse regular data inserts at low priority.
	if insS.Pri == 0 {
		t.Errorf("stream insertion priority = default, want low (bypass semantics)")
	}

	// Unattributed addresses get the default treatment.
	insU := m.classifyL3(0x7F000000, mem.Read)
	if insU.Pin || insU.Pri != 0 {
		t.Errorf("unattributed classify = %+v", insU)
	}
}
