package kernel

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/mem"
)

// The two allocators below are the per-region frame allocators the
// hybrid-memory and NUMA packages carried before RegionAllocator replaced
// both, kept verbatim as test-only reference models.

// refHybridAllocator hands out frames by tier: group 0 is the DRAM tier,
// group 1 the NVM tier. With no preference it fills DRAM first.
type refHybridAllocator struct {
	next   [2]uint64
	limit  [2]uint64
	baseVA [2]mem.Addr
}

// newRefHybridAllocator covers the two capacities. The NVM tier's frames
// start at the DRAM device boundary (the rounded capacity).
func newRefHybridAllocator(dramBytes, nvmBytes uint64) *refHybridAllocator {
	return &refHybridAllocator{
		limit:  [2]uint64{dramBytes / mem.PageBytes, nvmBytes / mem.PageBytes},
		baseVA: [2]mem.Addr{0, mem.Addr(refNextPow2(dramBytes))},
	}
}

// refNextPow2 rounds up to a power of two, with a floor of 1 MiB.
func refNextPow2(v uint64) uint64 {
	p := uint64(1 << 20)
	for p < v {
		p <<= 1
	}
	return p
}

func (a *refHybridAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	order := []int{0, 1} // DRAM first by default
	if len(preferred) > 0 {
		order = order[:0]
		for _, p := range preferred {
			if p == 0 || p == 1 {
				order = append(order, p)
			}
		}
		// Fall back to the other tier rather than failing.
		for _, t := range []int{0, 1} {
			seen := false
			for _, p := range order {
				if p == t {
					seen = true
				}
			}
			if !seen {
				order = append(order, t)
			}
		}
	}
	for _, t := range order {
		if a.next[t] < a.limit[t] {
			f := a.next[t]
			a.next[t]++
			return a.baseVA[t] + mem.Addr(f*mem.PageBytes), nil
		}
	}
	return 0, ErrOutOfMemory
}

func (a *refHybridAllocator) FreeFrames() int {
	return int(a.limit[0] - a.next[0] + a.limit[1] - a.next[1])
}

// refNUMAAllocator hands out frames by node: preferred-bank group i is
// node i.
type refNUMAAllocator struct {
	next   []uint64
	limit  uint64
	nodeSz uint64
	// rr interleaves nodes for unpreferred allocations.
	rr int
}

func newRefNUMAAllocator(nodes int, nodeBytes uint64) *refNUMAAllocator {
	return &refNUMAAllocator{
		next:   make([]uint64, nodes),
		limit:  nodeBytes / mem.PageBytes,
		nodeSz: nodeBytes,
	}
}

func (a *refNUMAAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	try := func(node int) (mem.Addr, bool) {
		if node < 0 || node >= len(a.next) || a.next[node] >= a.limit {
			return 0, false
		}
		f := a.next[node]
		a.next[node]++
		return mem.Addr(uint64(node)*a.nodeSz + f*mem.PageBytes), true
	}
	for _, p := range preferred {
		if f, ok := try(p); ok {
			return f, nil
		}
	}
	// No (usable) preference: interleave round-robin.
	for i := 0; i < len(a.next); i++ {
		node := (a.rr + i) % len(a.next)
		if f, ok := try(node); ok {
			a.rr = (node + 1) % len(a.next)
			return f, nil
		}
	}
	return 0, ErrOutOfMemory
}

func (a *refNUMAAllocator) FreeFrames() int {
	n := uint64(0)
	for _, used := range a.next {
		n += a.limit - used
	}
	return int(n)
}

// allocCoverage counts the allocator paths one differential run reached.
type allocCoverage struct {
	// spills are frames served outside the first preferred region;
	// badPrefs are preferred regions that do not exist; exhausted is 1
	// once the input ran until every region was empty.
	spills, badPrefs, exhausted int
	hybrid                      bool
}

// runRegionAllocDiff decodes one input and runs the region allocator and
// the matching reference model side by side until both are out of frames.
//
// Byte 0 picks the side: even bytes model a hybrid memory, odd ones a NUMA
// machine of 1-8 nodes. The next four bytes size the regions in 64-byte
// units, so budgets need not be whole pages. Every later byte draws one
// allocation's preference, cycling over the input until memory runs out.
// The hybrid side draws nil, DRAM or NVM; its region allocator gets the
// preference the simulator now passes, first touch for nil. The NUMA side
// draws up to three nodes, in range or not, and both allocators see the
// same list.
func runRegionAllocDiff(t testing.TB, data []byte) allocCoverage {
	t.Helper()
	var cov allocCoverage
	if len(data) < 5 {
		return cov
	}
	size := func(i int) uint64 { return (uint64(data[i]) | uint64(data[i+1])<<8) * 64 }
	var (
		ref   FrameAllocator
		got   *RegionAllocator
		nodes int
	)
	if data[0]%2 == 0 {
		cov.hybrid = true
		dramBytes, nvmBytes := size(1), size(3)
		ref = newRefHybridAllocator(dramBytes, nvmBytes)
		got = NewRegionAllocator(
			FrameRange{Base: 0, Bytes: dramBytes},
			FrameRange{Base: mem.Addr(refNextPow2(dramBytes)), Bytes: nvmBytes})
	} else {
		nodes = 1 + int(data[0]/2%8)
		nodeBytes := size(1) / 4
		ref = newRefNUMAAllocator(nodes, nodeBytes)
		ranges := make([]FrameRange, nodes)
		for i := range ranges {
			ranges[i] = FrameRange{Base: mem.Addr(uint64(i) * nodeBytes), Bytes: nodeBytes}
		}
		got = NewRegionAllocator(ranges...)
	}
	prefs := data[5:]
	pos := 0
	draw := func() byte {
		if len(prefs) == 0 {
			return 0
		}
		b := prefs[pos%len(prefs)]
		pos++
		return b
	}
	for op := 0; ; op++ {
		var refPref, gotPref []int
		if cov.hybrid {
			switch draw() % 3 {
			case 0:
				gotPref = FirstTouch{}.PreferredBanks(core.InvalidAtom)
			case 1:
				refPref, gotPref = []int{0}, []int{0}
			case 2:
				refPref, gotPref = []int{1}, []int{1}
			}
		} else {
			for k := int(draw() % 4); k > 0; k-- {
				node := int(draw())%(nodes+2) - 1
				if node < 0 || node >= nodes {
					cov.badPrefs++
				}
				refPref = append(refPref, node)
			}
			gotPref = refPref
		}
		rf, rerr := ref.AllocFrame(refPref)
		gf, gerr := got.AllocFrame(gotPref)
		if rf != gf || !errors.Is(gerr, rerr) {
			t.Fatalf("input %x op %d prefs %v: frame %#x err %v, reference %#x err %v", data, op, refPref, gf, gerr, rf, rerr)
		}
		if g, r := got.FreeFrames(), ref.FreeFrames(); g != r {
			t.Fatalf("input %x op %d: %d free frames, reference %d", data, op, g, r)
		}
		if rerr != nil {
			cov.exhausted++
			return cov
		}
		if len(gotPref) > 0 && !got.inRegion(gotPref[0], gf) {
			cov.spills++
		}
	}
}

// inRegion reports whether frame f lies in region r.
func (a *RegionAllocator) inRegion(r int, f mem.Addr) bool {
	if r < 0 || r >= len(a.regions) {
		return false
	}
	base := a.regions[r].Base
	return f >= base && uint64(f-base) < a.regions[r].Bytes
}

// FuzzRegionAllocatorMatchesReference: the region allocator hands out
// exactly the frames, errors and free counts of the per-region allocators
// it replaced, for any region sizes and preference sequence, through to
// exhaustion. Its seed corpus is committed under
// testdata/fuzz/FuzzRegionAllocatorMatchesReference.
func FuzzRegionAllocatorMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runRegionAllocDiff(t, data) })
}

// readCorpus returns the inputs of a fuzz target's committed seed corpus,
// by file name.
func readCorpus(t *testing.T, target string) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		inputs[f.Name()] = []byte(data)
	}
	return inputs
}

// TestRegionAllocatorSeedsCoverFallbacks: the committed corpus models both
// memories, serves frames outside the first preferred region on each,
// names regions that do not exist, and runs every input to exhaustion.
func TestRegionAllocatorSeedsCoverFallbacks(t *testing.T) {
	files := readCorpus(t, "FuzzRegionAllocatorMatchesReference")
	var hybridSpills, numaSpills, badPrefs, exhausted int
	for _, data := range files {
		c := runRegionAllocDiff(t, data)
		if c.hybrid {
			hybridSpills += c.spills
		} else {
			numaSpills += c.spills
		}
		badPrefs += c.badPrefs
		exhausted += c.exhausted
	}
	t.Logf("%d seeds: %d hybrid and %d NUMA spills, %d bad preferences", len(files), hybridSpills, numaSpills, badPrefs)
	if hybridSpills == 0 || numaSpills == 0 || badPrefs == 0 || exhausted != len(files) {
		t.Fatalf("seed corpus misses a path: %d hybrid and %d NUMA spills, %d bad preferences, %d of %d inputs exhausted",
			hybridSpills, numaSpills, badPrefs, exhausted, len(files))
	}
}

// The two allocators below are RandomizedAllocator and BankedAllocator as
// they were before both stopped listing frames up front, kept verbatim as
// test-only reference models: the randomized one shuffles every frame in
// its constructor, the banked one maps every frame into per-group lists.

// refRandomizedAllocator hands out frames in a seeded random order.
type refRandomizedAllocator struct {
	free []uint64
}

func newRefRandomizedAllocator(physBytes uint64, seed int64) *refRandomizedAllocator {
	free := make([]uint64, physBytes/mem.PageBytes)
	for i := range free {
		free[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	return &refRandomizedAllocator{free: free}
}

func (a *refRandomizedAllocator) AllocFrame([]int) (mem.Addr, error) {
	if len(a.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return mem.Addr(f * mem.PageBytes), nil
}

func (a *refRandomizedAllocator) FreeFrames() int { return len(a.free) }

// refBankedAllocator groups frames by the DRAM bank they start in and
// serves requests from preferred banks round-robin.
type refBankedAllocator struct {
	groups  [][]uint64 // per bank-group free frames, ascending
	heads   []int      // next index per group
	cursor  int        // round-robin position
	mapping *dram.Mapping
}

func newRefBankedAllocator(mapping *dram.Mapping) *refBankedAllocator {
	g := mapping.Geometry()
	nGroups := g.BanksPerChannel()
	a := &refBankedAllocator{
		groups:  make([][]uint64, nGroups),
		heads:   make([]int, nGroups),
		mapping: mapping,
	}
	frames := g.CapacityBytes / mem.PageBytes
	for f := uint64(0); f < frames; f++ {
		loc := mapping.Map(mem.Addr(f * mem.PageBytes))
		grp := loc.BankIndex(g)
		a.groups[grp] = append(a.groups[grp], f)
	}
	return a
}

func (a *refBankedAllocator) AllocFrame(preferred []int) (mem.Addr, error) {
	if len(preferred) == 0 {
		preferred = make([]int, len(a.groups))
		for i := range preferred {
			preferred[i] = i
		}
	}
	// Round-robin across the preferred banks, skipping exhausted ones.
	for i := 0; i < len(preferred); i++ {
		grp := preferred[(a.cursor+i)%len(preferred)]
		if grp < 0 || grp >= len(a.groups) {
			continue
		}
		if a.heads[grp] < len(a.groups[grp]) {
			f := a.groups[grp][a.heads[grp]]
			a.heads[grp]++
			a.cursor = (a.cursor + i + 1) % len(preferred)
			return mem.Addr(f * mem.PageBytes), nil
		}
	}
	// Preferred banks exhausted: fall back to any bank.
	for grp := range a.groups {
		if a.heads[grp] < len(a.groups[grp]) {
			f := a.groups[grp][a.heads[grp]]
			a.heads[grp]++
			return mem.Addr(f * mem.PageBytes), nil
		}
	}
	return 0, ErrOutOfMemory
}

func (a *refBankedAllocator) FreeFrames() int {
	n := 0
	for g := range a.groups {
		n += len(a.groups[g]) - a.heads[g]
	}
	return n
}

// frameCoverage counts the frame-allocator paths one differential run
// reached.
type frameCoverage struct {
	// scheme is the mapping scheme's index in dram.SchemeNames.
	scheme int
	// fallbacks are banked frames served outside every preferred group
	// although one of them exists; badPrefs are preferred groups that do
	// not exist; exhausted is 1 once both allocators ran dry.
	fallbacks, badPrefs, exhausted int
}

// runFrameAllocDiff decodes one input and runs the banked and randomized
// allocators beside their reference models until all four are out of
// frames.
//
// Byte 0 picks the mapping scheme. Byte 1 picks the channels (1-4), ranks
// (1-4) and banks per rank (1-8); byte 2 the row size (64 B-8 KiB) and
// the capacity (1 KiB-16 MiB, so down to no frames at all). Bytes 3-10
// are the randomized allocator's seed, negative seeds included. Every later
// byte draws one banked allocation's preference, cycling over the input
// until memory runs out: up to three groups, one past either end of the
// range included, or none (nil).
func runFrameAllocDiff(t testing.TB, data []byte) frameCoverage {
	t.Helper()
	var cov frameCoverage
	if len(data) < 11 {
		return cov
	}
	schemes := dram.SchemeNames()
	cov.scheme = int(data[0]) % len(schemes)
	g := dram.Geometry{
		Channels:        1 << (data[1] % 3),
		RanksPerChannel: 1 << (data[1] / 3 % 3),
		BanksPerRank:    1 << (data[1] / 9 % 4),
		RowBytes:        mem.LineBytes << (data[2] % 8),
		CapacityBytes:   1 << 10 << (data[2] / 8 % 15),
	}
	mapping, err := dram.NewMapping(schemes[cov.scheme], g)
	if err != nil {
		t.Fatalf("input %x: %v", data, err)
	}
	seed := int64(binary.LittleEndian.Uint64(data[3:11]))
	refBanked, banked := newRefBankedAllocator(mapping), NewBankedAllocator(mapping)
	refRandom, random := newRefRandomizedAllocator(g.CapacityBytes, seed), NewRandomizedAllocator(g.CapacityBytes, seed)
	groups := g.BanksPerChannel()
	prefs := data[11:]
	pos := 0
	draw := func() byte {
		if len(prefs) == 0 {
			return 0
		}
		b := prefs[pos%len(prefs)]
		pos++
		return b
	}
	check := func(what string, op int, pref []int, ref, got FrameAllocator) (mem.Addr, error) {
		rf, rerr := ref.AllocFrame(pref)
		gf, gerr := got.AllocFrame(pref)
		if rf != gf || !errors.Is(gerr, rerr) {
			t.Fatalf("input %x: %s op %d prefs %v: frame %#x err %v, reference %#x err %v", data, what, op, pref, gf, gerr, rf, rerr)
		}
		if g, r := got.FreeFrames(), ref.FreeFrames(); g != r {
			t.Fatalf("input %x: %s op %d: %d free frames, reference %d", data, what, op, g, r)
		}
		return gf, rerr
	}
	for op := 0; ; op++ {
		var pref []int
		valid := false
		for k := int(draw() % 4); k > 0; k-- {
			grp := int(draw())%(groups+2) - 1
			if grp < 0 || grp >= groups {
				cov.badPrefs++
			} else {
				valid = true
			}
			pref = append(pref, grp)
		}
		f, bankedErr := check("banked", op, pref, refBanked, banked)
		_, randomErr := check("randomized", op, nil, refRandom, random)
		if bankedErr != nil && randomErr != nil {
			cov.exhausted++
			return cov
		}
		if bankedErr == nil && valid && !slices.Contains(pref, banked.FrameBank(f)) {
			cov.fallbacks++
		}
	}
}

// FuzzFrameAllocatorsMatchReference: the banked and randomized allocators
// hand out exactly the frames, errors and free counts of the eager
// allocators they replaced, for every mapping scheme, any small geometry,
// any seed and any preference sequence, through to exhaustion. Its seed
// corpus is committed under
// testdata/fuzz/FuzzFrameAllocatorsMatchReference.
func FuzzFrameAllocatorsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runFrameAllocDiff(t, data) })
}

// TestFrameAllocatorSeedsCoverFallbacks: the committed corpus uses every
// mapping scheme, serves banked frames outside the preferred groups after
// they run dry, names groups that do not exist, and runs every input to
// exhaustion.
func TestFrameAllocatorSeedsCoverFallbacks(t *testing.T) {
	files := readCorpus(t, "FuzzFrameAllocatorsMatchReference")
	schemes := make([]bool, len(dram.SchemeNames()))
	var fallbacks, badPrefs, exhausted int
	for name, data := range files {
		c := runFrameAllocDiff(t, data)
		if c.exhausted == 0 {
			t.Errorf("%s: input too short to run", name)
		}
		schemes[c.scheme] = true
		fallbacks += c.fallbacks
		badPrefs += c.badPrefs
		exhausted += c.exhausted
	}
	t.Logf("%d seeds: %d fallbacks, %d bad preferences", len(files), fallbacks, badPrefs)
	for i, seen := range schemes {
		if !seen {
			t.Errorf("seed corpus never uses scheme %s", dram.SchemeNames()[i])
		}
	}
	if fallbacks == 0 || badPrefs == 0 || exhausted != len(files) {
		t.Fatalf("seed corpus misses a path: %d fallbacks, %d bad preferences, %d of %d inputs exhausted",
			fallbacks, badPrefs, exhausted, len(files))
	}
}

// TestRandomizedAllocatorMatchesShuffle: the randomized allocator hands out
// the frames of rand.Shuffle applied to the identity, last position first,
// at 0-3 frames, 1 MiB and 256 MiB. A toolchain whose math/rand draws
// Shuffle differently fails here, not only in the goldens.
func TestRandomizedAllocatorMatchesShuffle(t *testing.T) {
	for _, frames := range []int{0, 1, 2, 3, 1 << 20 / mem.PageBytes, 256 << 20 / mem.PageBytes} {
		// At 256 MiB, seed -2's draws hit int31n's bias redraw twice.
		for _, seed := range []int64{1, -2} {
			want := make([]int, frames)
			for i := range want {
				want[i] = i
			}
			rand.New(rand.NewSource(seed)).Shuffle(frames, func(i, j int) { want[i], want[j] = want[j], want[i] })
			a := NewRandomizedAllocator(uint64(frames)*mem.PageBytes, seed)
			for k := frames - 1; k >= 0; k-- {
				f, err := a.AllocFrame(nil)
				if err != nil || f != mem.Addr(want[k])*mem.PageBytes {
					t.Fatalf("%d frames, seed %d: position %d is frame %#x err %v, Shuffle put frame %d there",
						frames, seed, k, f, err, want[k])
				}
			}
			if _, err := a.AllocFrame(nil); !errors.Is(err, ErrOutOfMemory) || a.FreeFrames() != 0 {
				t.Fatalf("%d frames, seed %d: after every frame, err %v and %d free", frames, seed, err, a.FreeFrames())
			}
		}
	}
	// Above 2^31-1 frames Shuffle draws with Int63n; such sizes are refused
	// before anything is allocated.
	defer func() {
		if recover() == nil {
			t.Fatal("a randomized allocator over 2^31 frames was built")
		}
	}()
	NewRandomizedAllocator(1<<31*mem.PageBytes, 1)
}
