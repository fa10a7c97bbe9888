package kernel

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"xmem/internal/core"
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

// TestRegionAllocatorSeedsCoverFallbacks: the committed corpus models both
// memories, serves frames outside the first preferred region on each,
// names regions that do not exist, and runs every input to exhaustion.
func TestRegionAllocatorSeedsCoverFallbacks(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRegionAllocatorMatchesReference")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hybridSpills, numaSpills, badPrefs, exhausted int
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
		c := runRegionAllocDiff(t, []byte(data))
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
