package kernel

import (
	"runtime"
	"testing"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/mem"
)

func TestSequentialAllocator(t *testing.T) {
	a := NewSequentialAllocator(4 * mem.PageBytes)
	for i := 0; i < 4; i++ {
		f, err := a.AllocFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		if f != mem.Addr(i*mem.PageBytes) {
			t.Errorf("frame %d = %#x", i, f)
		}
	}
	if _, err := a.AllocFrame(nil); err == nil {
		t.Error("exhausted allocator succeeded")
	}
	if a.FreeFrames() != 0 {
		t.Errorf("free frames = %d", a.FreeFrames())
	}
}

func TestRandomizedAllocatorDeterministicAndComplete(t *testing.T) {
	mk := func() []mem.Addr {
		a := NewRandomizedAllocator(16*mem.PageBytes, 7)
		var out []mem.Addr
		for {
			f, err := a.AllocFrame(nil)
			if err != nil {
				break
			}
			out = append(out, f)
		}
		return out
	}
	o1, o2 := mk(), mk()
	if len(o1) != 16 {
		t.Fatalf("allocated %d frames, want 16", len(o1))
	}
	seen := map[mem.Addr]bool{}
	shuffled := false
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("same seed produced different orders")
		}
		if seen[o1[i]] {
			t.Fatal("frame allocated twice")
		}
		seen[o1[i]] = true
		if o1[i] != mem.Addr(i*mem.PageBytes) {
			shuffled = true
		}
	}
	if !shuffled {
		t.Error("randomized allocator produced sequential order")
	}
}

func testGeometry() dram.Geometry {
	return dram.Geometry{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
		RowBytes: 8 << 10, CapacityBytes: 16 << 20}
}

func TestBankedAllocatorRespectsPreference(t *testing.T) {
	m := dram.MustMapping("ro:ra:ba:co:ch", testGeometry())
	a := NewBankedAllocator(m)
	if a.Groups() != 8 {
		t.Fatalf("groups = %d, want 8", a.Groups())
	}
	for i := 0; i < 50; i++ {
		f, err := a.AllocFrame([]int{3})
		if err != nil {
			t.Fatal(err)
		}
		if got := a.FrameBank(f); got != 3 {
			t.Fatalf("frame in bank %d, want 3", got)
		}
	}
}

func TestBankedAllocatorRoundRobins(t *testing.T) {
	m := dram.MustMapping("ro:ra:ba:co:ch", testGeometry())
	a := NewBankedAllocator(m)
	counts := map[int]int{}
	for i := 0; i < 64; i++ {
		f, err := a.AllocFrame([]int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		counts[a.FrameBank(f)]++
	}
	for b := 0; b < 4; b++ {
		if counts[b] != 16 {
			t.Errorf("bank %d got %d frames, want 16 (round robin)", b, counts[b])
		}
	}
}

func TestBankedAllocatorFallsBackWhenExhausted(t *testing.T) {
	g := dram.Geometry{Channels: 1, RanksPerChannel: 1, BanksPerRank: 2,
		RowBytes: 8 << 10, CapacityBytes: 64 << 10} // 16 frames, 8 per bank
	m := dram.MustMapping("ro:ra:ba:ch:co", g)
	a := NewBankedAllocator(m)
	for i := 0; i < 16; i++ {
		if _, err := a.AllocFrame([]int{0}); err != nil {
			t.Fatalf("alloc %d: %v (fallback should serve from bank 1)", i, err)
		}
	}
	if _, err := a.AllocFrame([]int{0}); err == nil {
		t.Error("17th frame allocated from 16-frame memory")
	}
}

func TestAddressSpaceMallocAndTranslate(t *testing.T) {
	as := NewAddressSpace(NewSequentialAllocator(1<<20), nil)
	va, err := as.Malloc("A", 3*mem.PageBytes+5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va%mem.PageBytes != 0 {
		t.Errorf("base %#x not page aligned", va)
	}
	// Every byte of the region translates.
	for off := mem.Addr(0); off < 3*mem.PageBytes+5; off += 1024 {
		if _, ok := as.Translate(va + off); !ok {
			t.Fatalf("offset %#x unmapped", off)
		}
	}
	// Offset preserved within page.
	pa, _ := as.Translate(va + 123)
	if mem.PageOffset(pa) != 123 {
		t.Errorf("page offset = %d, want 123", mem.PageOffset(pa))
	}
	// Guard page unmapped.
	if _, ok := as.Translate(va + 4*mem.PageBytes); ok {
		t.Error("guard page mapped")
	}
	if as.MappedPages() != 4 {
		t.Errorf("mapped pages = %d, want 4", as.MappedPages())
	}
}

// TestAddressSpaceTranslateBoundaries: the dense page table translates
// exactly the mapped pages: frame 0 is a real frame, while the null page,
// addresses below vaBase, guard pages and addresses past the last mapping
// are unmapped. MappedPages counts only mapped pages, and a failed Malloc
// maps nothing.
func TestAddressSpaceTranslateBoundaries(t *testing.T) {
	as := NewAddressSpace(NewSequentialAllocator(16*mem.PageBytes), nil)
	var bases []mem.Addr
	for i, size := range []uint64{3*mem.PageBytes + 5, mem.PageBytes, 2 * mem.PageBytes} {
		va, err := as.Malloc("r", size, 0)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, va)
		if want := []int{4, 5, 7}[i]; as.MappedPages() != want {
			t.Fatalf("after malloc %d: mapped pages = %d, want %d", i, as.MappedPages(), want)
		}
	}
	a, b, c := bases[0], bases[1], bases[2]
	for _, tc := range []struct {
		name string
		va   mem.Addr
		ok   bool
		pa   mem.Addr
	}{
		{"null", 0, false, 0},
		{"below vaBase", vaBase - 1, false, 0},
		{"frame 0", a, true, 0},
		{"last byte of the first region", a + 4*mem.PageBytes - 1, true, 4*mem.PageBytes - 1},
		{"guard page", a + 4*mem.PageBytes, false, 0},
		{"byte before the second region", b - 1, false, 0},
		{"second region", b + 7, true, 4*mem.PageBytes + 7},
		{"last guard page", c + 2*mem.PageBytes, false, 0},
		{"page past the last mapping", c + 3*mem.PageBytes, false, 0},
		{"far address", 1 << 62, false, 0},
	} {
		pa, ok := as.Translate(tc.va)
		if ok != tc.ok || pa != tc.pa {
			t.Errorf("%s: Translate(%#x) = %#x, %v; want %#x, %v", tc.name, tc.va, pa, ok, tc.pa, tc.ok)
		}
	}

	// Nine frames remain; a ten-page Malloc takes them and fails.
	next := c + 3*mem.PageBytes
	if _, err := as.Malloc("big", 10*mem.PageBytes, 0); err == nil {
		t.Fatal("oversized malloc succeeded")
	}
	if as.MappedPages() != 7 {
		t.Errorf("after a failed malloc: mapped pages = %d, want 7", as.MappedPages())
	}
	if _, ok := as.Translate(next); ok {
		t.Error("a failed malloc left its first page mapped")
	}
}

func TestHotPathTranslateAllocFree(t *testing.T) {
	as := NewAddressSpace(NewSequentialAllocator(1<<20), nil)
	va, err := as.Malloc("buf", 64*mem.PageBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	var off mem.Addr
	var mapped int
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 256; i++ {
			// Mapped pages, the guard page and the pages past it.
			if _, ok := as.Translate(va + off); ok {
				mapped++
			}
			off = (off + 1000) % (70 * mem.PageBytes)
		}
	})
	if allocs != 0 {
		t.Errorf("Translate allocates %v per 256 calls, want 0", allocs)
	}
	if mapped == 0 {
		t.Fatal("no translation hit a mapped page")
	}
}

// allocatorSink keeps built allocators reachable, so the gates below
// count their heap cost even where the compiler could keep one on the
// stack.
var allocatorSink FrameAllocator

// buildCost returns the heap objects and bytes one build allocates,
// averaged over runs builds after a warm-up.
func buildCost(runs int, build func() FrameAllocator) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocatorSink = build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		allocatorSink = build()
	}
	runtime.ReadMemStats(&after)
	allocatorSink = nil
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestHotPathFrameAllocatorBuild: building the banked or randomized
// allocator over the fast preset's 256 MiB lists no frame up front. Each
// costs a handful of objects, and the randomized one at most 4.5 bytes
// per frame (its 4-byte lazy permutation); listing every frame in 64-bit
// slots costs over 8.
func TestHotPathFrameAllocatorBuild(t *testing.T) {
	g := dram.DefaultGeometry()
	g.CapacityBytes = 256 << 20
	frames := float64(g.CapacityBytes / mem.PageBytes)
	mapping := dram.MustMapping("ro:ra:ba:co:ch", g)
	for _, c := range []struct {
		name  string
		build func() FrameAllocator
	}{
		{"banked", func() FrameAllocator { return NewBankedAllocator(mapping) }},
		{"randomized", func() FrameAllocator { return NewRandomizedAllocator(g.CapacityBytes, 1) }},
	} {
		objects, bytes := buildCost(5, c.build)
		t.Logf("%s over 256 MiB: %.0f objects, %.0f bytes (%.2f per frame)", c.name, objects, bytes, bytes/frames)
		if objects > 4 || bytes/frames > 4.5 {
			t.Errorf("building the %s allocator over 256 MiB costs %.0f objects and %.2f bytes per frame, want <= 4 and <= 4.5",
				c.name, objects, bytes/frames)
		}
	}
}

func TestAddressSpaceRegions(t *testing.T) {
	as := NewAddressSpace(NewSequentialAllocator(1<<20), nil)
	vaA, _ := as.Malloc("A", mem.PageBytes, 1)
	vaB, _ := as.Malloc("B", mem.PageBytes, 2)
	if vaA == vaB {
		t.Fatal("overlapping regions")
	}
}

func TestAddressSpaceMallocErrors(t *testing.T) {
	as := NewAddressSpace(NewSequentialAllocator(2*mem.PageBytes), nil)
	if _, err := as.Malloc("zero", 0, 0); err == nil {
		t.Error("zero-size malloc succeeded")
	}
	if _, err := as.Malloc("big", 10*mem.PageBytes, 0); err == nil {
		t.Error("oversized malloc succeeded")
	}
}

type fixedPolicy map[core.AtomID][]int

func (p fixedPolicy) PreferredBanks(a core.AtomID) []int { return p[a] }

func TestAddressSpaceHonoursPlacementPolicy(t *testing.T) {
	m := dram.MustMapping("ro:ra:ba:co:ch", testGeometry())
	alloc := NewBankedAllocator(m)
	as := NewAddressSpace(alloc, fixedPolicy{7: {5}})
	va, err := as.Malloc("hot", 8*mem.PageBytes, 7)
	if err != nil {
		t.Fatal(err)
	}
	for p := mem.Addr(0); p < 8*mem.PageBytes; p += mem.PageBytes {
		pa, _ := as.Translate(va + p)
		if got := alloc.FrameBank(pa); got != 5 {
			t.Fatalf("page %d in bank %d, want 5", p/mem.PageBytes, got)
		}
	}
}

func placementAtoms() []core.Atom {
	return []core.Atom{
		{ID: 0, Name: "hotStream", Attrs: core.Attributes{
			Pattern: core.PatternRegular, StrideBytes: 8, Intensity: 200}},
		{ID: 1, Name: "coldStream", Attrs: core.Attributes{
			Pattern: core.PatternRegular, StrideBytes: 8, Intensity: 3}},
		{ID: 2, Name: "graphEdges", Attrs: core.Attributes{
			Pattern: core.PatternIrregular, Intensity: 150}},
		{ID: 3, Name: "warmStream", Attrs: core.Attributes{
			Pattern: core.PatternRegular, StrideBytes: 8, Intensity: 100}},
	}
}

func TestXMemPlacementIsolatesHotHighRBL(t *testing.T) {
	p := NewXMemPlacement(placementAtoms(), 8)
	iso := p.IsolatedAtoms()
	if len(iso) != 2 || iso[0] != 0 || iso[1] != 3 {
		t.Fatalf("isolated = %v, want [0 3]", iso)
	}
	b0 := p.PreferredBanks(0)
	b3 := p.PreferredBanks(3)
	// Banks are proportional to intensity share: the hotter atom gets
	// more, and the sets are disjoint.
	if len(b0) < len(b3) || len(b0) == 0 || len(b3) == 0 {
		t.Errorf("dedicated banks = %v, %v; hotter atom must get at least as many", b0, b3)
	}
	for _, a := range b0 {
		for _, b := range b3 {
			if a == b {
				t.Errorf("isolated bank sets overlap: %v, %v", b0, b3)
			}
		}
	}
	// Irregular and cold atoms share the remaining pool (>= 25% of banks).
	shared := p.SharedBanks()
	if len(shared) < 2 {
		t.Errorf("shared pool = %v, want at least 2 banks", shared)
	}
	if got := p.PreferredBanks(2); len(got) != len(shared) {
		t.Errorf("irregular atom banks = %v, want the shared pool", got)
	}
	// Unknown data also shares.
	if got := p.PreferredBanks(core.InvalidAtom); len(got) != len(shared) {
		t.Errorf("unattributed banks = %v", got)
	}
}

func TestXMemPlacementColdHighRBLNotIsolated(t *testing.T) {
	p := NewXMemPlacement(placementAtoms(), 8)
	for _, id := range p.IsolatedAtoms() {
		if id == 1 {
			t.Error("cold stream isolated despite low intensity")
		}
	}
}

func TestXMemPlacementCapsIsolation(t *testing.T) {
	var atoms []core.Atom
	for i := 0; i < 10; i++ {
		atoms = append(atoms, core.Atom{ID: core.AtomID(i), Attrs: core.Attributes{
			Pattern: core.PatternRegular, StrideBytes: 8, Intensity: uint8(200 - i)}})
	}
	p := NewXMemPlacement(atoms, 8)
	if got := len(p.IsolatedAtoms()); got > 6 {
		t.Errorf("isolated %d atoms with 8 banks; the shared floor bounds it", got)
	}
	if len(p.SharedBanks()) < 2 {
		t.Errorf("shared pool shrank to %v; at least a quarter must remain", p.SharedBanks())
	}
	// The hottest atoms win the dedicated banks.
	iso := p.IsolatedAtoms()
	if iso[0] != 0 {
		t.Errorf("hottest atom not isolated: %v", iso)
	}
}

func TestXMemPlacementDegenerateGeometry(t *testing.T) {
	p := NewXMemPlacement(placementAtoms(), 1)
	if len(p.SharedBanks()) == 0 {
		t.Fatal("no shared banks in degenerate geometry")
	}
}
