package core

import (
	"reflect"
	"strings"
	"testing"

	"xmem/internal/mem"
)

func TestLibCreateAtomSameSiteSameID(t *testing.T) {
	l := NewLib(nil)
	attrs := Attributes{Reuse: 5}
	id1 := l.CreateAtom("loop.tile", attrs)
	id2 := l.CreateAtom("loop.tile", attrs)
	if id1 != id2 {
		t.Fatalf("same site produced different IDs: %d vs %d", id1, id2)
	}
	if st := l.Stats(); st.Creates != 1 {
		t.Errorf("creates = %d, want 1 (repeat invocations are free)", st.Creates)
	}
}

func TestLibCreateAtomConsecutiveIDs(t *testing.T) {
	l := NewLib(nil)
	for i := 0; i < 5; i++ {
		id := l.CreateAtom(string(rune('a'+i)), Attributes{})
		if id != AtomID(i) {
			t.Fatalf("atom %d got ID %d; IDs must be consecutive from 0 (§4.2)", i, id)
		}
	}
}

func TestLibImmutableAttributes(t *testing.T) {
	l := NewLib(nil)
	id1 := l.CreateAtom("s", Attributes{Reuse: 1})
	id2 := l.CreateAtom("s", Attributes{Reuse: 99})
	if id1 != id2 {
		t.Fatal("site identity broken")
	}
	if got := l.Atoms()[id1].Attrs.Reuse; got != 1 {
		t.Errorf("attributes mutated: reuse = %d, want original 1", got)
	}
	if st := l.Stats(); st.AttrConflicts != 1 {
		t.Errorf("conflicts = %d, want 1", st.AttrConflicts)
	}
}

func TestLibAtomBudgetExhaustion(t *testing.T) {
	l := NewLib(nil)
	for i := 0; i < MaxAtoms; i++ {
		l.CreateAtom(string(rune(i))+"#", Attributes{})
	}
	id := l.CreateAtom("one-too-many", Attributes{})
	if id != InvalidAtom {
		t.Fatalf("over-budget create returned %d, want InvalidAtom", id)
	}
	// Operators on the invalid handle must be harmless no-ops.
	l.AtomMap(id, 0, 4096)
	l.AtomActivate(id)
	l.AtomDeactivate(id)
}

func TestLibRuntimeOpsDriveAMU(t *testing.T) {
	u := newTestAMU()
	l := NewLib(u)
	id := l.CreateAtom("buf", Attributes{Reuse: 3})
	l.AtomMap(id, 0x7000, 4096)
	l.AtomActivate(id)
	if got, ok := u.Lookup(0x7000); !ok || got != id {
		t.Fatalf("AMU lookup = %d,%v", got, ok)
	}
	l.AtomUnmap(id, 0x7000, 4096)
	if _, ok := u.Lookup(0x7000); ok {
		t.Error("address still mapped after AtomUnmap")
	}
}

func TestLibInstructionAccounting(t *testing.T) {
	l := NewLib(nil)
	id := l.CreateAtom("x", Attributes{})
	l.AtomMap(id, 0, 64)
	l.AtomActivate(id)
	l.AtomDeactivate(id)
	l.AtomUnmap(id, 0, 64)
	st := l.Stats()
	if st.RuntimeOps != 4 {
		t.Errorf("runtime ops = %d, want 4", st.RuntimeOps)
	}
	want := uint64(2*mapOpInstructions + 2*statusOpInstructions)
	if st.Instructions != want {
		t.Errorf("instructions = %d, want %d", st.Instructions, want)
	}
}

func TestLibSegmentMatchesAtoms(t *testing.T) {
	l := NewLib(nil)
	l.CreateAtom("a", Attributes{Type: TypeFloat32, Reuse: 7})
	l.CreateAtom("b", Attributes{Pattern: PatternIrregular})
	atoms, err := DecodeSegment(l.Segment())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(atoms) != 2 || atoms[0].Name != "a" || atoms[1].Attrs.Pattern != PatternIrregular {
		t.Fatalf("segment atoms = %+v", atoms)
	}
}

// TestLibRejectsUnencodableSite: the segment stores a site's length as a
// uint16, so a longer site gets InvalidAtom instead of an atom whose name
// would corrupt every name after it in the segment.
func TestLibRejectsUnencodableSite(t *testing.T) {
	l := NewLib(nil)
	if id := l.CreateAtom(strings.Repeat("s", 70_000), Attributes{}); id != InvalidAtom {
		t.Fatalf("CreateAtom of a 70,000-byte site = %d, want InvalidAtom", id)
	}
	longest := strings.Repeat("s", maxSiteBytes)
	l.CreateAtom(longest, Attributes{})
	l.CreateAtom("b", Attributes{})
	atoms, err := DecodeSegment(l.Segment())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(atoms) != 2 || atoms[0].Name != longest || atoms[1].Name != "b" {
		t.Fatalf("segment holds %d atoms; want the %d-byte site, then \"b\"", len(atoms), maxSiteBytes)
	}
}

func TestLibDimensionalOps(t *testing.T) {
	u := newTestAMU()
	l := NewLib(u)
	id := l.CreateAtom("m", Attributes{})
	l.AtomMap2D(id, 0x10000, 256, 2, 1024)
	l.AtomActivate(id)
	if _, ok := u.Lookup(0x10400); !ok {
		t.Error("2D row 1 not mapped")
	}
	l.AtomUnmap2D(id, 0x10000, 256, 2, 1024)
	if _, ok := u.Lookup(0x10400); ok {
		t.Error("2D row 1 still mapped after unmap")
	}
	l.AtomMap3D(id, 0x20000, 256, 2, 2, 1024, 4096)
	if _, ok := u.Lookup(0x21400); !ok {
		t.Error("3D plane 1 row 1 not mapped")
	}
	l.AtomUnmap3D(id, 0x20000, 256, 2, 2, 1024, 4096)
	if _, ok := u.Lookup(0x21400); ok {
		t.Error("3D mapping survived unmap")
	}
}

func TestTranslateCachePAT(t *testing.T) {
	g := NewGAT()
	g.LoadAtoms([]Atom{
		{ID: 0, Attrs: Attributes{Reuse: 200}},
		{ID: 1, Attrs: Attributes{Reuse: 0, Pattern: PatternRegular, StrideBytes: 64}},
		{ID: 2, Attrs: Attributes{Reuse: 0, Pattern: PatternNonDet}},
	})
	pat := TranslateCache(g)
	if pat.Len() != 3 {
		t.Fatalf("len = %d", pat.Len())
	}
	a0, _ := pat.Lookup(0)
	if !a0.PinCandidate || a0.Bypass || a0.Reuse != 200 {
		t.Errorf("atom 0 cache attrs = %+v", a0)
	}
	a1, _ := pat.Lookup(1)
	if a1.PinCandidate || !a1.Bypass {
		t.Errorf("atom 1 (streaming, no reuse) = %+v, want bypass", a1)
	}
	a2, _ := pat.Lookup(2)
	if a2.Bypass {
		t.Errorf("atom 2 (non-det) = %+v; unknown-reuse data must not bypass", a2)
	}
	if _, ok := pat.Lookup(99); ok {
		t.Error("lookup of unknown atom succeeded")
	}
}

// TestPerAtomTable: reads past the end see the zero value, a write grows
// the table to exactly the written ID, and InvalidAtom is refused.
func TestPerAtomTable(t *testing.T) {
	var tab PerAtom[uint64]
	if tab.Get(3) != 0 || tab.Get(InvalidAtom) != 0 || tab.Len() != 0 {
		t.Fatalf("empty table: Get(3) = %d, Len = %d", tab.Get(3), tab.Len())
	}
	*tab.At(3) += 5
	if v, ok := tab.Lookup(3); !ok || v != 5 || tab.Len() != 4 {
		t.Errorf("after At(3): Lookup(3) = %d,%v, Len = %d, want 5,true,4", v, ok, tab.Len())
	}
	if v, ok := tab.Lookup(2); !ok || v != 0 {
		t.Errorf("Lookup(2) = %d,%v, want 0,true", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("At(InvalidAtom) did not panic")
		}
	}()
	tab.At(InvalidAtom)
}

func TestTranslatePrefetchPAT(t *testing.T) {
	g := NewGAT()
	g.LoadAtoms([]Atom{
		{ID: 0, Attrs: Attributes{Pattern: PatternRegular, StrideBytes: 128}},
		{ID: 1, Attrs: Attributes{Pattern: PatternRegular, StrideBytes: 8}},
		{ID: 2, Attrs: Attributes{Pattern: PatternIrregular}},
	})
	pat := TranslatePrefetch(g)
	a0, _ := pat.Lookup(0)
	if !a0.Prefetchable || a0.StrideLines != 2 {
		t.Errorf("atom 0 = %+v, want prefetchable stride 2 lines", a0)
	}
	a1, _ := pat.Lookup(1)
	if !a1.Prefetchable || a1.StrideLines != 1 {
		t.Errorf("atom 1 = %+v; sub-line strides round up to 1 line", a1)
	}
	a2, _ := pat.Lookup(2)
	if a2.Prefetchable {
		t.Errorf("atom 2 = %+v; irregular is not prefetchable", a2)
	}
}

func TestTranslateMemCtlPAT(t *testing.T) {
	g := NewGAT()
	g.LoadAtoms([]Atom{
		{ID: 0, Attrs: Attributes{Pattern: PatternRegular, StrideBytes: 8, Intensity: 90}},
		{ID: 1, Attrs: Attributes{Pattern: PatternRegular, StrideBytes: 4096}},
		{ID: 2, Attrs: Attributes{Pattern: PatternNonDet, Intensity: 10}},
	})
	pat := TranslateMemCtl(g)
	a0, _ := pat.Lookup(0)
	if !a0.HighRBL || a0.Irregular || a0.Intensity != 90 {
		t.Errorf("atom 0 = %+v", a0)
	}
	a1, _ := pat.Lookup(1)
	if a1.HighRBL {
		t.Errorf("atom 1 = %+v; page-strided access has low RBL", a1)
	}
	a2, _ := pat.Lookup(2)
	if !a2.Irregular {
		t.Errorf("atom 2 = %+v", a2)
	}
}

func TestAttributeStringForms(t *testing.T) {
	a := Attributes{
		Type: TypeFloat64, Props: PropSparse | PropPointer,
		Pattern: PatternRegular, StrideBytes: 64, RW: ReadOnly,
		Intensity: 1, Reuse: 2,
	}
	s := a.String()
	for _, sub := range []string{"FLOAT64", "SPARSE", "POINTER", "REGULAR", "READ_ONLY"} {
		if !contains(s, sub) {
			t.Errorf("Attributes.String() = %q missing %q", s, sub)
		}
	}
	if DataProps(0).String() != "-" {
		t.Error("empty props should print as -")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestLibMapCalls pins what each of Table 2's six MAP/UNMAP calls does, so
// every dimensionality is known to take the same path: one AMU counter, one
// op and six instructions of LibStats, one broadcast carrying the call's
// linearized physical ranges, and a zero-size warning that names the call.
func TestLibMapCalls(t *testing.T) {
	const va = mem.Addr(0x40000)
	// The identity MMU maps each 512-byte row of the block to its VA.
	rows := func(offs ...mem.Addr) []PARange {
		var r []PARange
		for _, o := range offs {
			r = append(r, PARange{Base: va + o, Size: 512})
		}
		return r
	}
	oneD := rows(0)
	twoD := rows(0, 2048, 4096)              // 3 rows 2048 bytes apart
	threeD := rows(0, 1024, 8192, 8192+1024) // 2 planes 8192 apart of 2 rows 1024 apart
	cases := []struct {
		name  string
		call  func(l *Lib, id AtomID, sizeX uint64)
		unmap bool
		// want is the broadcast's Ranges for sizeX = 512.
		want []PARange
	}{
		{"AtomMap", func(l *Lib, id AtomID, x uint64) { l.AtomMap(id, va, x) }, false, oneD},
		{"AtomUnmap", func(l *Lib, id AtomID, x uint64) { l.AtomUnmap(id, va, x) }, true, oneD},
		{"AtomMap2D", func(l *Lib, id AtomID, x uint64) { l.AtomMap2D(id, va, x, 3, 2048) }, false, twoD},
		{"AtomUnmap2D", func(l *Lib, id AtomID, x uint64) { l.AtomUnmap2D(id, va, x, 3, 2048) }, true, twoD},
		{"AtomMap3D", func(l *Lib, id AtomID, x uint64) { l.AtomMap3D(id, va, x, 2, 2, 1024, 8192) }, false, threeD},
		{"AtomUnmap3D", func(l *Lib, id AtomID, x uint64) { l.AtomUnmap3D(id, va, x, 2, 2, 1024, 8192) }, true, threeD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := newTestAMU()
			var rec recorder
			u.Subscribe(&rec)
			l := NewLib(u)
			id := l.CreateAtom("blk", Attributes{})
			tc.call(l, id, 512)

			want := AMUStats{MapOps: 1}
			if tc.unmap {
				want = AMUStats{UnmapOps: 1}
			}
			if got := u.Stats(); got != want {
				t.Errorf("AMU stats = %+v, want %+v", got, want)
			}
			if st := l.Stats(); st.RuntimeOps != 1 || st.Instructions != 6 {
				t.Errorf("LibStats ops %d, instructions %d; want 1, 6", st.RuntimeOps, st.Instructions)
			}
			if len(rec.maps) != 1 {
				t.Fatalf("%d broadcasts, want 1", len(rec.maps))
			}
			ev := rec.maps[0]
			if ev.ID != id || !reflect.DeepEqual(ev.Ranges, tc.want) || ev.Unmap != tc.unmap {
				t.Errorf("broadcast id %d ranges %+v unmap %v; want %d %+v %v",
					ev.ID, ev.Ranges, ev.Unmap, id, tc.want, tc.unmap)
			}

			cl, c := newCheckedLib()
			tc.call(cl, cl.CreateAtom("zero", Attributes{}), 0)
			if c.Counts().ZeroSizedMaps != 1 {
				t.Fatalf("ZeroSizedMaps = %d, want 1", c.Counts().ZeroSizedMaps)
			}
			prefix := tc.name + `(0 "zero"): zero-sized mapping`
			found := false
			for _, w := range c.Warnings() {
				found = found || strings.HasPrefix(w, prefix)
			}
			if !found {
				t.Errorf("warnings %q lack %q", c.Warnings(), prefix)
			}
		})
	}
}
