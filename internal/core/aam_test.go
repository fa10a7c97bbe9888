package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmem/internal/mem"
)

func TestAAMDefaultGranularity(t *testing.T) {
	m := NewAAM(0)
	if got := m.GranularityBytes(); got != DefaultGranularityBytes {
		t.Fatalf("granularity = %d, want %d", got, DefaultGranularityBytes)
	}
}

func TestAAMRejectsBadGranularity(t *testing.T) {
	for _, g := range []uint64{3, 48, 96, 511, mem.LineBytes / 2, 2 * mem.PageBytes} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAAM(%d) did not panic", g)
				}
			}()
			NewAAM(g)
		}()
	}
}

func TestAAMMapLookup(t *testing.T) {
	m := NewAAM(512)
	m.Map(0x1000, 1024, 7)

	if id, ok := m.Lookup(0x1000); !ok || id != 7 {
		t.Errorf("Lookup(0x1000) = %d,%v want 7,true", id, ok)
	}
	if id, ok := m.Lookup(0x13FF); !ok || id != 7 {
		t.Errorf("Lookup(0x13FF) = %d,%v want 7,true", id, ok)
	}
	if _, ok := m.Lookup(0x1400); ok {
		t.Error("Lookup(0x1400) mapped, want unmapped")
	}
	if _, ok := m.Lookup(0x0FFF); ok {
		t.Error("Lookup(0x0FFF) mapped, want unmapped")
	}
}

func TestAAMMapCoversPartialChunks(t *testing.T) {
	m := NewAAM(512)
	// A 64-byte range in the middle of a chunk claims the whole chunk:
	// the AAM is approximate at chunk granularity (§4.2).
	m.Map(0x1100, 64, 3)
	if id, ok := m.Lookup(0x1000); !ok || id != 3 {
		t.Errorf("Lookup(0x1000) = %d,%v want 3,true (chunk rounding)", id, ok)
	}
	if id, ok := m.Lookup(0x11FF); !ok || id != 3 {
		t.Errorf("Lookup(0x11FF) = %d,%v want 3,true", id, ok)
	}
}

func TestAAMManyToOneInvariant(t *testing.T) {
	// Mapping a second atom over the same range displaces the first:
	// a VA maps to at most one atom at any time (§3.2).
	m := NewAAM(512)
	m.Map(0x2000, 2048, 1)
	m.Map(0x2000, 1024, 2)

	if id, _ := m.Lookup(0x2000); id != 2 {
		t.Errorf("overlap start = atom %d, want 2", id)
	}
	if id, _ := m.Lookup(0x2400); id != 1 {
		t.Errorf("tail = atom %d, want 1", id)
	}
	if got := m.MappedBytes(1); got != 1024 {
		t.Errorf("atom 1 mapped bytes = %d, want 1024", got)
	}
	if got := m.MappedBytes(2); got != 1024 {
		t.Errorf("atom 2 mapped bytes = %d, want 1024", got)
	}
}

func TestAAMUnmapOnlyNamedAtom(t *testing.T) {
	m := NewAAM(512)
	m.Map(0x1000, 512, 1)
	m.Map(0x1200, 512, 2) // chunk 0x1200>>9 == 9; wait 0x1200/512=9, 0x1000/512=8
	// Unmapping atom 1 over both chunks must not disturb atom 2.
	m.Unmap(0x1000, 1024, 1)
	if _, ok := m.Lookup(0x1000); ok {
		t.Error("atom 1 chunk still mapped after unmap")
	}
	if id, ok := m.Lookup(0x1200); !ok || id != 2 {
		t.Errorf("atom 2 chunk = %d,%v; unmap of atom 1 must not touch it", id, ok)
	}
}

func TestAAMMappedAtomsAndWorkingSet(t *testing.T) {
	m := NewAAM(512)
	m.Map(0, 8192, 1)
	m.Map(0x10000, 512, 2)
	ids := m.MappedAtoms()
	if len(ids) != 2 {
		t.Fatalf("MappedAtoms = %v, want 2 atoms", ids)
	}
	if m.MappedBytes(1) != 8192 {
		t.Errorf("working set of atom 1 = %d, want 8192", m.MappedBytes(1))
	}
}

func TestAAMPageAtoms(t *testing.T) {
	m := NewAAM(512)
	m.Map(0x1000, 512, 4) // first chunk of page 1
	m.Map(0x1E00, 512, 9) // last chunk of page 1
	atoms := m.PageAtoms(0x1234)
	if len(atoms) != 8 {
		t.Fatalf("PageAtoms len = %d, want 8 (4KB page / 512B chunks)", len(atoms))
	}
	if atoms[0] != 4 {
		t.Errorf("chunk 0 = %d, want 4", atoms[0])
	}
	if atoms[7] != 9 {
		t.Errorf("chunk 7 = %d, want 9", atoms[7])
	}
	for i := 1; i < 7; i++ {
		if atoms[i] != InvalidAtom {
			t.Errorf("chunk %d = %d, want InvalidAtom", i, atoms[i])
		}
	}
}

// TestAAMOverflowPages exercises the sparse fallback for pages beyond the
// dense directory (synthetic far-flung physical addresses).
func TestAAMOverflowPages(t *testing.T) {
	m := NewAAM(512)
	far := mem.Addr(maxDirectPages) << mem.PageShift // first overflow page
	m.Map(far+0x200, 1024, 3)
	if id, ok := m.Lookup(far + 0x200); !ok || id != 3 {
		t.Fatalf("overflow Lookup = %d,%v want 3,true", id, ok)
	}
	if id, ok := m.Lookup(far + 0x5FF); !ok || id != 3 {
		t.Fatalf("overflow tail chunk = %d,%v want 3,true", id, ok)
	}
	if _, ok := m.Lookup(far + 0x800); ok {
		t.Fatal("unmapped overflow chunk resolves")
	}
	if got := m.MappedBytes(3); got != 1024 {
		t.Fatalf("MappedBytes = %d, want 1024 (chunks 1-2)", got)
	}
	atoms := m.PageAtoms(far)
	if atoms[1] != 3 || atoms[2] != 3 || atoms[0] != InvalidAtom {
		t.Fatalf("overflow PageAtoms = %v", atoms)
	}
	m.Unmap(far, mem.PageBytes, 3)
	if _, ok := m.Lookup(far + 0x200); ok {
		t.Fatal("overflow chunk survives unmap")
	}
	// The dense directory must not have been grown toward the far page.
	if len(m.dir) != 0 {
		t.Fatalf("dense directory grew to %d pages for an overflow-only mapping", len(m.dir))
	}
}

// TestAAMDirectoryShrinksToFootprint: unmapping a page's last chunk frees
// its directory slot, so a long-running sim's AAM tracks the live footprint.
func TestAAMDirectoryShrinksToFootprint(t *testing.T) {
	m := NewAAM(512)
	m.Map(0x1000, mem.PageBytes, 1)
	if m.page(1) == nil {
		t.Fatal("page 1 not resident after map")
	}
	m.Unmap(0x1000, mem.PageBytes, 1)
	if m.page(1) != nil {
		t.Fatal("page 1 still resident after its last chunk unmapped")
	}
	// PageAtoms of a dropped page is all-invalid, not a panic.
	for i, id := range m.PageAtoms(0x1000) {
		if id != InvalidAtom {
			t.Fatalf("chunk %d = %d after teardown", i, id)
		}
	}
}

// TestAAMDirectoryGrowsGeometrically: mapping ascending pages one at a time
// reallocates the dense directory O(log n) times, not once per new page.
func TestAAMDirectoryGrowsGeometrically(t *testing.T) {
	const pages = 4096
	m := NewAAM(512)
	grows, lastCap := 0, cap(m.dir)
	for p := 0; p < pages; p++ {
		m.Map(mem.Addr(p)*mem.PageBytes, mem.PageBytes, AtomID(p%8))
		if c := cap(m.dir); c != lastCap {
			grows, lastCap = grows+1, c
		}
	}
	if len(m.dir) != pages {
		t.Fatalf("directory covers %d pages, want %d", len(m.dir), pages)
	}
	if grows > 24 {
		t.Errorf("directory reallocated %d times for %d ascending pages, want <= 24", grows, pages)
	}
	for p := 0; p < pages; p++ {
		if id, ok := m.Lookup(mem.Addr(p) * mem.PageBytes); !ok || id != AtomID(p%8) {
			t.Fatalf("page %d maps to %d,%v, want %d", p, id, ok, p%8)
		}
	}
}

// TestAAMPagedDirectoryAgainstOracle is the paged-layout property test: a
// randomized stream of overlapping, unaligned, page-spanning Map/Unmap ops
// against a plain chunk-map oracle derived from the §4.2 spec
// (a chunk maps to the atom most recently mapped over any byte of it),
// asserting Lookup, MappedBytes, and PageAtoms agree — across both the
// dense directory and the overflow region.
func TestAAMPagedDirectoryAgainstOracle(t *testing.T) {
	const gran = 512
	const chunksPerPage = uint64(mem.PageBytes / gran)
	// Page universe: dense low pages plus overflow pages.
	pages := []uint64{0, 1, 2, 3, 5, 8, 13, maxDirectPages, maxDirectPages + 2}
	rng := rand.New(rand.NewSource(7))
	m := NewAAM(gran)
	oracle := make(map[uint64]AtomID) // chunk index -> atom

	oracleRange := func(base mem.Addr, size uint64) (uint64, uint64) {
		if size == 0 {
			return uint64(base) / gran, uint64(base) / gran
		}
		first := uint64(base) / gran
		last := (uint64(base) + size + gran - 1) / gran
		return first, last
	}
	checkAll := func(step int) {
		t.Helper()
		for _, page := range pages {
			base := mem.Addr(page << mem.PageShift)
			var wantPage [chunksPerPage]AtomID
			for c := uint64(0); c < chunksPerPage; c++ {
				chunk := page*chunksPerPage + c
				want, wantOK := oracle[chunk]
				got, gotOK := m.Lookup(base + mem.Addr(c*gran))
				if wantOK != gotOK || (wantOK && want != got) {
					t.Fatalf("step %d: Lookup(page %#x chunk %d) = %d,%v want %d,%v",
						step, page, c, got, gotOK, want, wantOK)
				}
				if wantOK {
					wantPage[c] = want
				} else {
					wantPage[c] = InvalidAtom
				}
			}
			gotPage := m.PageAtoms(base)
			for c := range gotPage {
				if gotPage[c] != wantPage[c] {
					t.Fatalf("step %d: PageAtoms(page %#x)[%d] = %d, want %d",
						step, page, c, gotPage[c], wantPage[c])
				}
			}
		}
		counts := make(map[AtomID]uint64)
		for _, id := range oracle {
			counts[id]++
		}
		for id := AtomID(0); id < 8; id++ {
			if got, want := m.MappedBytes(id), counts[id]*gran; got != want {
				t.Fatalf("step %d: MappedBytes(%d) = %d, want %d", step, id, got, want)
			}
		}
	}

	for step := 0; step < 1500; step++ {
		page := pages[rng.Intn(len(pages))]
		base := mem.Addr(page<<mem.PageShift | uint64(rng.Intn(mem.PageBytes)))
		size := uint64(rng.Intn(2 * mem.PageBytes)) // unaligned, may span pages
		id := AtomID(rng.Intn(8))
		first, last := oracleRange(base, size)
		switch op := rng.Intn(10); {
		case op < 6:
			m.Map(base, size, id)
			for c := first; c < last; c++ {
				oracle[c] = id
			}
		default:
			m.Unmap(base, size, id)
			for c := first; c < last; c++ {
				if oracle[c] == id {
					delete(oracle, c)
				}
			}
		}
		if step%100 == 0 {
			checkAll(step)
		}
	}
	checkAll(-1)
}

func TestAAMStorageOverhead(t *testing.T) {
	m := NewAAM(512)
	// §4.4: 0.2% of an 8 GB system = 16 MB with 8-bit atom IDs.
	phys := uint64(8) << 30
	if got := m.StorageOverheadBytes(phys, 8); got != 16<<20 {
		t.Errorf("overhead = %d, want %d", got, 16<<20)
	}
	// §4.2: 6-bit IDs at 1 KB granularity ≈ 0.07%.
	m2 := NewAAM(1024)
	got := m2.StorageOverheadBytes(phys, 6)
	frac := float64(got) / float64(phys)
	if frac < 0.0006 || frac > 0.0008 {
		t.Errorf("overhead fraction = %f, want ~0.0007", frac)
	}
}

// TestAAMQuickAgainstReference drives random map/unmap sequences against a
// byte-granular reference model and checks every lookup agrees.
func TestAAMQuickAgainstReference(t *testing.T) {
	type op struct {
		Unmap bool
		Chunk uint16 // confined space so ops overlap
		Len   uint8
		ID    uint8
	}
	check := func(ops []op) bool {
		m := NewAAM(512)
		ref := make(map[uint64]AtomID) // chunk -> atom
		for _, o := range ops {
			base := mem.Addr(o.Chunk) * 512
			size := (uint64(o.Len)%8 + 1) * 512
			id := AtomID(o.ID % 8)
			first := uint64(o.Chunk)
			last := first + size/512
			if o.Unmap {
				m.Unmap(base, size, id)
				for c := first; c < last; c++ {
					if ref[c] == id {
						delete(ref, c)
					}
				}
			} else {
				m.Map(base, size, id)
				for c := first; c < last; c++ {
					ref[c] = id
				}
			}
		}
		// Validate lookups and per-atom working-set accounting.
		counts := make(map[AtomID]uint64)
		for c := uint64(0); c < 1<<16; c++ {
			want, wantOK := ref[c]
			got, gotOK := m.Lookup(mem.Addr(c * 512))
			if wantOK != gotOK || (wantOK && want != got) {
				return false
			}
			if wantOK {
				counts[want]++
			}
		}
		for id, n := range counts {
			if m.MappedBytes(id) != n*512 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(1)),
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
