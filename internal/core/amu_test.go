package core

import (
	"reflect"
	"testing"

	"xmem/internal/mem"
)

// identityMMU maps every virtual address to itself.
type identityMMU struct{}

func (identityMMU) Translate(va mem.Addr) (mem.Addr, bool) { return va, true }

// tableMMU translates through an explicit page table; absent pages fail.
type tableMMU map[uint64]uint64 // VA page index -> PA page index

func (t tableMMU) Translate(va mem.Addr) (mem.Addr, bool) {
	pp, ok := t[mem.PageIndex(va)]
	if !ok {
		return 0, false
	}
	return mem.Addr(pp<<mem.PageShift) | mem.Addr(mem.PageOffset(va)), true
}

// recorder captures AMU broadcasts.
type recorder struct {
	maps   []MapEvent
	status []AtomID
	active []bool
}

func (r *recorder) AtomMapping(ev MapEvent) { r.maps = append(r.maps, ev) }
func (r *recorder) AtomStatus(id AtomID, active bool) {
	r.status = append(r.status, id)
	r.active = append(r.active, active)
}

func newTestAMU() *AMU {
	return NewAMU(identityMMU{}, AMUConfig{})
}

func TestAMUMapActivateLookup(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(4, 0x10000, 4096)

	// Mapped but inactive: attributes must not be recognized (§3.2).
	if id, ok := u.Lookup(0x10000); ok {
		t.Fatalf("inactive atom visible: %d", id)
	}
	u.ExecActivate(4)
	if id, ok := u.Lookup(0x10000); !ok || id != 4 {
		t.Fatalf("Lookup = %d,%v want 4,true", id, ok)
	}
	u.ExecDeactivate(4)
	if _, ok := u.Lookup(0x10000); ok {
		t.Fatal("deactivated atom still visible")
	}
}

func TestAMULookupUsesALB(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(1, 0x4000, 4096)
	u.ExecActivate(1)

	u.Lookup(0x4000) // miss, fills ALB
	u.Lookup(0x4040) // hit
	u.Lookup(0x4FC0) // hit (same page)
	st := u.Stats()
	if st.Lookups != 3 || st.AAMAccesses != 1 {
		t.Fatalf("lookups=%d aam=%d, want 3 lookups with 1 AAM access", st.Lookups, st.AAMAccesses)
	}
	hits, misses := u.ALB().Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("ALB hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestAMUMapInvalidatesALB(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(1, 0x8000, 4096)
	u.ExecActivate(1)
	u.ExecActivate(2)
	u.Lookup(0x8000) // fill ALB with atom 1

	u.ExecMap(2, 0x8000, 4096) // remap must invalidate the cached page
	if id, ok := u.Lookup(0x8000); !ok || id != 2 {
		t.Fatalf("Lookup after remap = %d,%v want 2,true", id, ok)
	}
}

func TestAMUTranslationSkipsUnmappedPages(t *testing.T) {
	mmu := tableMMU{0: 100, 2: 102} // VA page 1 is absent
	u := NewAMU(mmu, AMUConfig{})
	u.ExecMap(3, 0, 3*mem.PageBytes)
	u.ExecActivate(3)

	if id, ok := u.Lookup(mem.Addr(100 << mem.PageShift)); !ok || id != 3 {
		t.Errorf("page 0 -> %d,%v want 3,true", id, ok)
	}
	if id, ok := u.Lookup(mem.Addr(102 << mem.PageShift)); !ok || id != 3 {
		t.Errorf("page 2 -> %d,%v want 3,true", id, ok)
	}
	if _, ok := u.Lookup(mem.Addr(101 << mem.PageShift)); ok {
		t.Error("PA page 101 mapped but no VA page translates there")
	}
	// Working set counts only the translated pages.
	if ws := u.AAM().MappedBytes(3); ws != 2*mem.PageBytes {
		t.Errorf("working set = %d, want %d", ws, 2*mem.PageBytes)
	}
}

func TestAMUMap2DLinearization(t *testing.T) {
	u := newTestAMU()
	rec := &recorder{}
	u.Subscribe(rec)
	// 2 rows of 512 bytes in a structure with 4096-byte rows.
	u.execMap(7, 0x100000, 512, 2, 1, 4096, 8192, false)

	if len(rec.maps) != 1 {
		t.Fatalf("broadcasts = %d, want 1", len(rec.maps))
	}
	ev := rec.maps[0]
	want := []PARange{
		{Base: 0x100000, Size: 512},
		{Base: 0x101000, Size: 512},
	}
	if !reflect.DeepEqual(ev.Ranges, want) || ev.Unmap {
		t.Fatalf("broadcast = %+v, want map of %+v", ev, want)
	}
	u.ExecActivate(7)
	if id, ok := u.Lookup(0x101000); !ok || id != 7 {
		t.Errorf("row 1 lookup = %d,%v", id, ok)
	}
	// The inter-row gap must not be mapped (beyond chunk rounding of 512B rows).
	if _, ok := u.Lookup(0x100400); ok {
		t.Error("gap between 2D rows is mapped")
	}
}

func TestAMUMap3D(t *testing.T) {
	u := newTestAMU()
	// 2 planes x 2 rows x 512 bytes; rows 2048 apart, planes 8192 apart.
	u.execMap(1, 0x200000, 512, 2, 2, 2048, 8192, false)
	u.ExecActivate(1)
	for _, pa := range []mem.Addr{0x200000, 0x200800, 0x202000, 0x202800} {
		if id, ok := u.Lookup(pa); !ok || id != 1 {
			t.Errorf("lookup(%#x) = %d,%v want 1,true", pa, id, ok)
		}
	}
	if _, ok := u.Lookup(0x201000); ok {
		t.Error("unmapped inter-row space visible")
	}
}

func TestAMUContiguousRunsCoalesce(t *testing.T) {
	u := newTestAMU()
	rec := &recorder{}
	u.Subscribe(rec)
	// Rows that tile contiguously must produce one coalesced range.
	u.execMap(2, 0x300000, 1024, 4, 1, 1024, 4096, false)
	want := []PARange{{Base: 0x300000, Size: 4096}}
	if !reflect.DeepEqual(rec.maps[0].Ranges, want) {
		t.Fatalf("ranges = %+v, want %+v", rec.maps[0].Ranges, want)
	}
}

func TestAMUUnmapBroadcast(t *testing.T) {
	u := newTestAMU()
	rec := &recorder{}
	u.Subscribe(rec)
	u.ExecMap(5, 0x1000, 512)
	u.ExecUnmap(5, 0x1000, 512)
	if len(rec.maps) != 2 || !rec.maps[1].Unmap {
		t.Fatalf("broadcasts = %+v", rec.maps)
	}
	u.ExecActivate(5)
	if _, ok := u.Lookup(0x1000); ok {
		t.Error("unmapped address still resolves")
	}
}

func TestAMUStatusBroadcast(t *testing.T) {
	u := newTestAMU()
	rec := &recorder{}
	u.Subscribe(rec)
	u.ExecActivate(9)
	u.ExecDeactivate(9)
	if len(rec.status) != 2 || rec.status[0] != 9 || !rec.active[0] || rec.active[1] {
		t.Fatalf("status broadcasts = %v / %v", rec.status, rec.active)
	}
}

func TestAMUActiveMappedAtoms(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(3, 0x1000, 512)
	u.ExecMap(1, 0x2000, 512)
	u.ExecMap(2, 0x3000, 512)
	u.ExecActivate(3)
	u.ExecActivate(2)
	u.ExecActivate(200) // active but unmapped: excluded

	got := u.ActiveMappedAtoms()
	want := []AtomID{2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveMappedAtoms = %v, want %v", got, want)
	}
}

func TestAMULookupShortPageEntryAfterGranularityChange(t *testing.T) {
	// A coarse-granularity AMU has fewer chunks per page; its lookups must
	// stay in range end to end.
	u := NewAMU(identityMMU{}, AMUConfig{AAMGranularityBytes: mem.PageBytes})
	u.ExecMap(1, 0x3000, mem.PageBytes)
	u.ExecActivate(1)
	if id, ok := u.Lookup(0x3FFF); !ok || id != 1 {
		t.Fatalf("page-granularity lookup = %d,%v", id, ok)
	}
	if _, ok := u.Lookup(0x4000); ok {
		t.Fatal("neighboring page resolves")
	}
}

func TestAMUContextSwitch(t *testing.T) {
	u := newTestAMU()
	u.ExecMap(1, 0x1000, 512)
	u.ExecActivate(1)
	u.Lookup(0x1000)
	if u.ALB().Len() == 0 {
		t.Fatal("ALB empty before context switch")
	}

	g2 := NewGAT()
	g2.LoadAtoms([]Atom{{ID: 0, Name: "other", Attrs: Attributes{Reuse: 9}}})
	a2 := new(AtomSet)
	u.ContextSwitch(g2, a2)
	if u.ALB().Len() != 0 {
		t.Error("ALB not flushed on context switch")
	}
	if u.GAT() != g2 || u.AST() != a2 {
		t.Error("GAT/AST not swapped")
	}
	// The AAM is global (host-physical indexed, §4.3) and survives.
	if _, ok := u.AAM().Lookup(0x1000); !ok {
		t.Error("AAM lost mappings across context switch")
	}
}

func TestAMULookupAttributes(t *testing.T) {
	u := newTestAMU()
	g := NewGAT()
	g.LoadAtoms([]Atom{{ID: 0, Name: "a", Attrs: Attributes{Reuse: 42}}})
	u.SetGAT(g)
	u.ExecMap(0, 0x5000, 512)
	u.ExecActivate(0)
	id, attrs, ok := u.LookupAttributes(0x5000)
	if !ok || id != 0 || attrs.Reuse != 42 {
		t.Fatalf("LookupAttributes = %d,%+v,%v", id, attrs, ok)
	}
	if _, _, ok := u.LookupAttributes(0x9000); ok {
		t.Error("attributes found for unmapped address")
	}
}
