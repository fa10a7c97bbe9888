package sim

import (
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/mem"
)

// TestFrameTable: a frame never set, or past the table's end, reads as core
// 0 and InvalidAtom; InvalidAtom round-trips through a write; growing the
// table keeps the entries set before.
func TestFrameTable(t *testing.T) {
	// in returns an address inside frame f, off its first byte.
	in := func(f uint64) mem.Addr { return mem.Addr(f*mem.PageBytes + 3*mem.LineBytes) }
	var ft frameTable
	if core, atom := ft.owner(in(0)); core != 0 || atom != xm.InvalidAtom {
		t.Fatalf("empty table: frame 0 owned by core %d, atom %d", core, atom)
	}
	ft.set(in(2), 1, 7)
	ft.set(in(3), 2, xm.InvalidAtom)
	ft.set(in(40), 3, 0) // grows the table past frames 2 and 3
	for _, c := range []struct {
		name  string
		frame uint64
		core  int
		atom  xm.AtomID
	}{
		{"never set", 0, 0, xm.InvalidAtom},
		{"tagged, set before growth", 2, 1, 7},
		{"InvalidAtom, set before growth", 3, 2, xm.InvalidAtom},
		{"gap filled by growth", 20, 0, xm.InvalidAtom},
		{"atom 0", 40, 3, 0},
		{"past the end", 41, 0, xm.InvalidAtom},
		{"far past the end", 1 << 40, 0, xm.InvalidAtom},
	} {
		if core, atom := ft.owner(in(c.frame)); core != c.core || atom != c.atom {
			t.Errorf("%s: frame %d owned by core %d, atom %d; want core %d, atom %d",
				c.name, c.frame, core, atom, c.core, c.atom)
		}
	}
}
