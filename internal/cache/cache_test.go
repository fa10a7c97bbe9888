package cache

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// flatMemory is a fixed-latency backing store recording the requests it saw.
type flatMemory struct {
	latency uint64
	reads   int
	writes  int
	log     []mem.Addr
}

func (m *flatMemory) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	m.log = append(m.log, pa)
	if kind == mem.Writeback {
		m.writes++
		return mem.Done(at)
	}
	m.reads++
	return mem.Done(at + m.latency)
}

func testCache(t *testing.T, size uint64, ways int, policy string) (*Cache, *flatMemory) {
	t.Helper()
	next := &flatMemory{latency: 100}
	c, err := New(Config{Name: "L", SizeBytes: size, Ways: ways, Latency: 4, Policy: policy}, next)
	if err != nil {
		t.Fatal(err)
	}
	return c, next
}

func TestCacheHitMissLatency(t *testing.T) {
	c, next := testCache(t, 4096, 4, "lru")
	done := c.Access(0x1000, mem.Read, 0, 0).Wait()
	if done != 4+100 {
		t.Errorf("miss latency = %d, want 104", done)
	}
	done = c.Access(0x1000, mem.Read, 200, 0).Wait()
	if done != 204 {
		t.Errorf("hit latency = %d, want 204", done)
	}
	st := c.Stats()
	if st.ReadMisses != 1 || st.ReadHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if next.reads != 1 {
		t.Errorf("backing reads = %d, want 1", next.reads)
	}
}

func TestCacheRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{SizeBytes: 1000, Ways: 4}, &flatMemory{}); err == nil {
		t.Error("odd size accepted")
	}
	// 1056 bytes hold 16 whole lines and half a line: not a line multiple.
	if _, err := New(Config{SizeBytes: 1056, Ways: 16}, &flatMemory{}); err == nil {
		t.Error("size that is not a whole number of lines accepted")
	}
	if _, err := New(Config{SizeBytes: 4096, Ways: 0}, &flatMemory{}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(Config{SizeBytes: 4096, Ways: 4, Policy: "mystery"}, &flatMemory{}); err == nil {
		t.Error("unknown policy accepted")
	}
	// 3 sets is not a power of two: 4096 = 3 sets * ... pick 4096/ (64*21)...
	if _, err := New(Config{SizeBytes: 64 * 12, Ways: 4, Policy: "lru"}, &flatMemory{}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	// One set: 256B, 4 ways -> 1 set exactly? 256/64=4 lines /4 ways = 1 set.
	c, _ := testCache(t, 256, 4, "lru")
	addrs := []mem.Addr{0x0000, 0x1000, 0x2000, 0x3000}
	for _, a := range addrs {
		c.Access(a, mem.Read, 0, 0)
	}
	c.Access(0x0000, mem.Read, 10, 0) // refresh line 0
	c.Access(0x4000, mem.Read, 20, 0) // evicts LRU = 0x1000
	if !c.Contains(0x0000) {
		t.Error("refreshed line evicted")
	}
	if c.Contains(0x1000) {
		t.Error("LRU line survived")
	}
	for _, a := range []mem.Addr{0x2000, 0x3000, 0x4000} {
		if !c.Contains(a) {
			t.Errorf("line %#x missing", a)
		}
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c, next := testCache(t, 256, 4, "lru")
	c.Access(0x0000, mem.Write, 0, 0)
	for i := 1; i <= 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	if next.writes != 1 {
		t.Fatalf("writebacks = %d, want 1", next.writes)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("stat writebacks = %d", got)
	}
	// The written-back address must be the victim's line address.
	found := false
	for _, a := range next.log {
		if a == 0x0000 {
			found = true
		}
	}
	if !found {
		t.Error("victim address not written back")
	}
}

func TestCacheWritebackVictimAddressReconstruction(t *testing.T) {
	// Use a multi-set cache and a high line address to exercise the
	// tag/set reassembly.
	c, next := testCache(t, 8192, 2, "lru") // 64 sets... 8192/64=128 lines /2 = 64 sets
	base := mem.Addr(0xABC000)
	c.Access(base, mem.Write, 0, 0)
	// Two more lines in the same set evict it (same set index bits).
	setStride := mem.Addr(64 * 64) // sets * lineBytes
	c.Access(base+setStride, mem.Read, 1, 0)
	c.Access(base+2*setStride, mem.Read, 2, 0)
	got := mem.Addr(0)
	for _, a := range next.log {
		if a == base {
			got = a
		}
	}
	if got != base {
		t.Fatalf("writeback address = %#x, want %#x", got, base)
	}
}

func TestCacheWriteAllocate(t *testing.T) {
	c, next := testCache(t, 4096, 4, "lru")
	c.Access(0x2000, mem.Write, 0, 0)
	if next.reads != 1 {
		t.Errorf("write miss did not fetch line (reads=%d)", next.reads)
	}
	if !c.Contains(0x2000) {
		t.Error("write miss did not allocate")
	}
	// A subsequent read hits.
	c.Access(0x2000, mem.Read, 100, 0)
	if c.Stats().ReadHits != 1 {
		t.Error("read after write-allocate missed")
	}
}

func TestCacheWritebackMissForwards(t *testing.T) {
	c, next := testCache(t, 4096, 4, "lru")
	c.Access(0x9000, mem.Writeback, 0, 0)
	if next.writes != 1 {
		t.Errorf("forwarded writebacks = %d, want 1", next.writes)
	}
	if c.Contains(0x9000) {
		t.Error("writeback miss allocated a line")
	}
}

func TestCacheWritebackHitMarksDirty(t *testing.T) {
	c, next := testCache(t, 256, 4, "lru")
	c.Access(0x0000, mem.Read, 0, 0)
	c.Access(0x0000, mem.Writeback, 1, 0) // upper-level dirty eviction lands here
	for i := 1; i <= 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	if next.writes != 1 {
		t.Errorf("dirty line from writeback hit not written back (writes=%d)", next.writes)
	}
}

func TestCachePrefetchFillAndDelayedHit(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	c.Access(0x3000, mem.Prefetch, 0, 0) // fill completes at cycle 104
	if c.Stats().PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d", c.Stats().PrefetchFills)
	}
	// Demand read at cycle 10 hits the in-flight line: done at fill time.
	done := c.Access(0x3000, mem.Read, 10, 0).Wait()
	if done != 104 {
		t.Errorf("delayed hit done = %d, want 104", done)
	}
	if c.Stats().DelayedHits != 1 {
		t.Errorf("delayed hits = %d, want 1", c.Stats().DelayedHits)
	}
	// Demand read after fill time is a normal hit.
	done = c.Access(0x3000, mem.Read, 200, 0).Wait()
	if done != 204 {
		t.Errorf("post-fill hit done = %d, want 204", done)
	}
}

func TestCachePinCapPerSet(t *testing.T) {
	// 4-way, one set, default cap 75% -> 3 pinned ways max.
	c, _ := testCache(t, 256, 4, "drrip")
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		return Insertion{Pin: true, Atom: 1}
	})
	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i), 0)
	}
	if got := c.PinnedLines(); got != 3 {
		t.Fatalf("pinned lines = %d, want 3 (75%% of 4 ways)", got)
	}
	if c.Stats().PinDowngrades != 1 {
		t.Errorf("pin downgrades = %d, want 1", c.Stats().PinDowngrades)
	}
}

func TestCachePinnedSurvivesThrash(t *testing.T) {
	c, _ := testCache(t, 256, 4, "drrip")
	pinNext := true
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		if pinNext {
			return Insertion{Pin: true, Atom: 7}
		}
		return Insertion{Atom: core.InvalidAtom}
	})
	c.Access(0x0000, mem.Read, 0, 0)
	pinNext = false
	// A long streaming sweep through the same set.
	for i := 1; i <= 64; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	if !c.Contains(0x0000) {
		t.Fatal("pinned line evicted by streaming data")
	}
	if c.Stats().PinEvictions != 0 {
		t.Errorf("pin evictions = %d, want 0", c.Stats().PinEvictions)
	}
}

func TestCacheAgePinned(t *testing.T) {
	c, _ := testCache(t, 256, 4, "drrip")
	atom := core.AtomID(3)
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		return Insertion{Pin: true, Atom: atom}
	})
	c.Access(0x0000, mem.Read, 0, 0)
	c.SetClassifier(nil)

	// Keep function rejects atom 3: the pin is dropped and the line aged.
	c.AgePinned(func(id core.AtomID) bool { return id != 3 })
	if c.PinnedLines() != 0 {
		t.Fatalf("pinned lines after aging = %d", c.PinnedLines())
	}
	// Now a couple of fills evict it (it was aged to distant).
	c.Access(0x1000, mem.Read, 10, 0)
	c.Access(0x2000, mem.Read, 20, 0)
	c.Access(0x3000, mem.Read, 30, 0)
	c.Access(0x4000, mem.Read, 40, 0)
	if c.Contains(0x0000) {
		t.Error("aged line survived subsequent fills in a full set")
	}
}

func TestCacheAgePinnedKeepsKeptAtoms(t *testing.T) {
	c, _ := testCache(t, 256, 4, "drrip")
	which := core.AtomID(1)
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		return Insertion{Pin: true, Atom: which}
	})
	c.Access(0x0000, mem.Read, 0, 0)
	which = 2
	c.Access(0x1000, mem.Read, 1, 0)
	c.AgePinned(func(id core.AtomID) bool { return id == 2 })
	if got := c.PinnedLines(); got != 1 {
		t.Fatalf("pinned lines = %d, want 1 (atom 2 kept)", got)
	}
}

func TestCacheObserverSeesDemandOnly(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	var events int
	var misses int
	c.SetObserver(func(pa, pc mem.Addr, at uint64, miss bool) {
		events++
		if miss {
			misses++
		}
	})
	c.Access(0x1000, mem.Read, 0, 0)      // demand miss
	c.Access(0x1000, mem.Read, 10, 0)     // demand hit
	c.Access(0x5000, mem.Prefetch, 0, 0)  // not observed
	c.Access(0x6000, mem.Writeback, 0, 0) // not observed
	if events != 2 || misses != 1 {
		t.Errorf("observer events = %d (misses %d), want 2 (1)", events, misses)
	}
}

func TestDRRIPScanResistance(t *testing.T) {
	// A small working set reused repeatedly, interleaved with a scan.
	// DRRIP must retain more of the working set than plain LRU.
	run := func(policy string) uint64 {
		next := &flatMemory{latency: 100}
		c := MustNew(Config{Name: "L", SizeBytes: 32 * 1024, Ways: 16, Latency: 4, Policy: policy}, next)
		hot := make([]mem.Addr, 256) // 16KB working set (fits half the cache)
		for i := range hot {
			hot[i] = mem.Addr(i * 64)
		}
		at := uint64(0)
		for round := 0; round < 64; round++ {
			for _, a := range hot {
				c.Access(a, mem.Read, at, 0)
				at += 10
			}
			// Scan through 64KB of one-touch data.
			for i := 0; i < 1024; i++ {
				c.Access(mem.Addr(0x100000+round*0x10000+i*64), mem.Read, at, 0)
				at += 10
			}
		}
		return c.Stats().ReadHits
	}
	lruHits := run("lru")
	drripHits := run("drrip")
	if drripHits <= lruHits {
		t.Errorf("DRRIP hits (%d) <= LRU hits (%d); expected scan resistance", drripHits, lruHits)
	}
}

func TestRRIPVictimAgesUntilFound(t *testing.T) {
	for _, skip := range [][]bool{nil, make([]bool, 4)} {
		p := NewSRRIP(1, 4)
		for w := 0; w < 4; w++ {
			p.Insert(0, w, InsertDefault) // RRPV = 2
		}
		p.Hit(0, 1) // RRPV[1] = 0
		v := p.Victim(0, skip)
		if v == 1 {
			t.Errorf("skip %v: victim = way 1, the most recently hit line", skip)
		}
	}
}

func TestRRIPVictimRespectsEligibility(t *testing.T) {
	p := NewSRRIP(1, 4)
	for w := 0; w < 4; w++ {
		p.Insert(0, w, InsertLow) // all RRPV = 3
	}
	v := p.Victim(0, []bool{true, true, false, true})
	if v != 2 {
		t.Errorf("victim = %d, want the only eligible way 2", v)
	}
}

func TestLRUVictimRespectsEligibility(t *testing.T) {
	p := NewLRU(2, 4)
	for w := 0; w < 4; w++ {
		p.Insert(1, w, InsertDefault) // way 0 is least recently used
	}
	if v := p.Victim(1, nil); v != 0 {
		t.Errorf("victim = %d, want the LRU way 0", v)
	}
	if v := p.Victim(1, []bool{true, false, true, false}); v != 1 {
		t.Errorf("victim = %d, want way 1, the LRU way among eligible 1 and 3", v)
	}
	if v := p.Victim(1, []bool{true, true, false, true}); v != 2 {
		t.Errorf("victim = %d, want the only eligible way 2", v)
	}
}

func TestBRRIPMostlyDistantInsert(t *testing.T) {
	p := NewBRRIP(1, 4).(*rrip)
	distant := 0
	for i := 0; i < brripEpsilon*4; i++ {
		p.Insert(0, 0, InsertDefault)
		if p.rrpv[0] == rripMax {
			distant++
		}
	}
	if distant <= brripEpsilon*3 {
		t.Errorf("BRRIP distant inserts = %d of %d; should dominate", distant, brripEpsilon*4)
	}
	if distant == brripEpsilon*4 {
		t.Error("BRRIP never inserted long; epsilon path unused")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]func(int, int) Policy{
		"LRU": NewLRU, "SRRIP": NewSRRIP, "BRRIP": NewBRRIP, "DRRIP": NewDRRIP,
	}
	for want, mk := range cases {
		if got := mk(16, 4).Name(); got != want {
			t.Errorf("name = %q, want %q", got, want)
		}
	}
}

func TestCacheMultiLevel(t *testing.T) {
	next := &flatMemory{latency: 200}
	l2 := MustNew(Config{Name: "L2", SizeBytes: 8192, Ways: 8, Latency: 8, Policy: "drrip"}, next)
	l1 := MustNew(Config{Name: "L1", SizeBytes: 1024, Ways: 4, Latency: 4, Policy: "lru"}, l2)

	done := l1.Access(0x4000, mem.Read, 0, 0).Wait()
	if done != 4+8+200 {
		t.Errorf("L1+L2 miss latency = %d, want 212", done)
	}
	// Evict from L1 (16 lines, 4 sets): lines mapping to the same set.
	for i := 1; i <= 4; i++ {
		l1.Access(mem.Addr(0x4000+i*1024), mem.Read, uint64(100*i), 0)
	}
	// 0x4000 now misses L1 but hits L2.
	done = l1.Access(0x4000, mem.Read, 10000, 0).Wait()
	if done != 10000+4+8 {
		t.Errorf("L2 hit latency = %d, want %d", done, 10000+4+8)
	}
}
