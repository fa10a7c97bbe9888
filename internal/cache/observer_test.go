package cache

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// pendingMemory is a backing store whose reads stay in flight until the test
// resolves them, for exercising delayed hits and prefetch lead times.
type pendingMemory struct {
	futures []*mem.Future
}

func (m *pendingMemory) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	if kind == mem.Writeback {
		return mem.Done(at)
	}
	var f *mem.Future
	f = mem.NewFuture(func() { f.Resolve(at + 1000) })
	m.futures = append(m.futures, f)
	return mem.Pending(f)
}

// probeLog records a cache's probe events, demand outcomes and evictions
// apart. The tests below are named after the consumer whose view of the
// probe they check: the span tracer, useful-prefetch attribution and the
// hit-latency histograms.
type probeLog struct {
	demand, evicted []Event
}

func recordProbe(c *Cache) *probeLog {
	l := &probeLog{}
	c.SetProbe(func(ev Event) {
		if ev.Evicted {
			l.evicted = append(l.evicted, ev)
		} else {
			l.demand = append(l.demand, ev)
		}
	})
	return l
}

func TestSpanObserverHitAndMiss(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	log := recordProbe(c)

	c.Access(0x1000, mem.Read, 0, 0)
	c.Access(0x1000, mem.Write, 200, 0)
	evs := log.demand
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	miss, hit := evs[0], evs[1]
	if !miss.Miss || miss.PA != 0x1000 || miss.At != 0 || miss.Done != 4 {
		t.Errorf("miss event = %+v", miss)
	}
	if miss.Pinned || miss.PinDenied || miss.LowPriority || miss.Resolved {
		t.Errorf("classifier-less miss carries insertion flags: %+v", miss)
	}
	if a := c.lineAtom(0x1000); a != core.InvalidAtom {
		t.Errorf("classifier-less fill holds atom %d", a)
	}
	if hit.Miss || hit.Delayed || hit.At != 200 || hit.Done != 204 || !hit.Resolved {
		t.Errorf("hit event = %+v", hit)
	}

	// Prefetch probes and writebacks are not demand accesses and stay silent.
	log.demand = nil
	c.Access(0x2000, mem.Prefetch, 300, 0)
	c.Access(0x1000, mem.Writeback, 310, 0)
	if len(log.demand) != 0 || len(log.evicted) != 0 {
		t.Errorf("non-demand kinds fired %d events", len(log.demand)+len(log.evicted))
	}
}

// TestSpanObserverPinOutcomes drives the §5.2 insertion outcomes through one
// set: pinned fills until the 75% cap, then a denied pin, plus a
// low-priority (bypass) fill.
func TestSpanObserverPinOutcomes(t *testing.T) {
	// 256B/4-way = one set; cap = 3 pinned ways.
	c, _ := testCache(t, 256, 4, "lru")
	pin := true
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		if pin {
			return Insertion{Pin: true, Atom: 7}
		}
		return Insertion{Pri: InsertLow, Atom: 8}
	})
	log := recordProbe(c)

	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	pin = false
	c.Access(0x8000, mem.Read, 100, 0)
	evs := log.demand
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i := 0; i < 3; i++ {
		if !evs[i].Pinned || evs[i].PinDenied {
			t.Errorf("fill %d = %+v, want pinned", i, evs[i])
		}
		if a := c.lineAtom(mem.Addr(i) << 12); a != 7 {
			t.Errorf("pinned fill %d holds atom %d, want 7", i, a)
		}
	}
	if !evs[3].PinDenied || evs[3].Pinned {
		t.Errorf("capped fill = %+v, want pin denied", evs[3])
	}
	if !evs[4].LowPriority {
		t.Errorf("bypass fill = %+v, want low priority", evs[4])
	}
	if a := c.lineAtom(0x8000); a != 8 {
		t.Errorf("bypass fill holds atom %d, want 8", a)
	}
	// The bypass fill displaced the one unpinned line: the pin-denied fill.
	if len(log.evicted) != 1 || log.evicted[0].PA != 3<<12 || log.evicted[0].Pinned {
		t.Errorf("evictions = %+v, want the unpinned line %#x", log.evicted, 3<<12)
	}
}

// TestProbeEvictionPinnedVictim: in a set saturated with pinned lines the
// victim of last resort is pinned, and the eviction event carries its line
// address and pinned bit; a later eviction of an unpinned line does not
// claim a pin.
func TestProbeEvictionPinnedVictim(t *testing.T) {
	// 256B/4-way = one set; a cap of 1.0 lets all four ways pin.
	c := MustNew(Config{Name: "L3", SizeBytes: 256, Ways: 4, Latency: 4,
		Policy: "lru", PinCapFraction: 1}, &flatMemory{latency: 100})
	atom := core.AtomID(7)
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		return Insertion{Pin: atom == 7, Atom: atom}
	})
	log := recordProbe(c)

	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	if len(log.evicted) != 0 {
		t.Fatalf("filling an empty set evicted %+v", log.evicted)
	}
	atom = 9
	c.Access(0x8000, mem.Prefetch, 100, 0) // evictions fire for any fill
	c.Access(0x9000, mem.Read, 200, 0)
	if len(log.evicted) != 2 {
		t.Fatalf("got %d evictions, want 2: %+v", len(log.evicted), log.evicted)
	}
	pinned, unpinned := log.evicted[0], log.evicted[1]
	if pinned.PA != 0 || !pinned.Pinned || pinned.At != 100 || pinned.Miss || pinned.Resolved {
		t.Errorf("pinned eviction = %+v, want the LRU pinned line 0x0", pinned)
	}
	if unpinned.PA != 0x8000 || unpinned.Pinned || unpinned.At != 200 {
		t.Errorf("unpinned eviction = %+v, want the prefetched line 0x8000", unpinned)
	}
	if st := c.Stats(); st.PinEvictions != 1 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 1 pinned eviction of 2", st)
	}
}

func TestSpanObserverDelayedHit(t *testing.T) {
	next := &pendingMemory{}
	c := MustNew(Config{Name: "L3", SizeBytes: 4096, Ways: 4, Latency: 4, Policy: "lru"}, next)
	log := recordProbe(c)

	// A prefetch installs the line; its fill stays in flight.
	c.Access(0x1000, mem.Prefetch, 0, 0)
	// A demand read under the in-flight fill: delayed hit, prefetched.
	c.Access(0x1000, mem.Read, 10, 0)
	if len(log.demand) != 1 {
		t.Fatalf("got %d events, want 1", len(log.demand))
	}
	ev := log.demand[0]
	if !ev.Delayed || ev.Miss || !ev.Prefetched {
		t.Errorf("delayed-hit event = %+v", ev)
	}
	if ev.At != 10 || ev.Done != 14 || ev.Resolved {
		t.Errorf("unresolved delayed hit times = at %d done %d resolved %v (done falls back to lookup)",
			ev.At, ev.Done, ev.Resolved)
	}
	// The lead is unknown while the fill is unresolved.
	if ev.Lead != 0 {
		t.Errorf("lead = %d, want 0", ev.Lead)
	}
}

func TestUsefulObserverLead(t *testing.T) {
	next := &pendingMemory{}
	c := MustNew(Config{Name: "L3", SizeBytes: 4096, Ways: 4, Latency: 4, Policy: "lru"}, next)
	log := recordProbe(c)

	c.Access(0x1000, mem.Prefetch, 0, 0)
	next.futures[0].Resolve(50) // the prefetch lands at cycle 50
	c.Access(0x1000, mem.Read, 200, 0)
	evs := log.demand
	if len(evs) != 1 || evs[0].Delayed || !evs[0].Prefetched {
		t.Fatalf("resolved prefetch hit = %+v", evs)
	}
	if evs[0].Lead != 150 {
		t.Fatalf("lead = %d, want 150 (landed 150 cycles ahead of demand)", evs[0].Lead)
	}
	// Second demand access: the prefetched bit was consumed.
	c.Access(0x1000, mem.Read, 300, 0)
	evs = log.demand
	if len(evs) != 2 || evs[1].Prefetched || evs[1].Lead != 0 {
		t.Errorf("second hit still marked prefetched: %+v", evs)
	}
}

func TestLatencyObserver(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	var got []uint64
	c.SetProbe(func(ev Event) {
		if ev.Resolved {
			got = append(got, ev.Done-ev.At)
		}
	})

	c.Access(0x1000, mem.Read, 0, 0)   // miss: resolved below, not here
	c.Access(0x1000, mem.Read, 200, 0) // hit: 4-cycle lookup
	c.Access(0x1000, mem.Write, 300, 0)
	c.Access(0x2000, mem.Prefetch, 400, 0) // prefetch probes are not demand
	// The read hit, then the write hit.
	want := []uint64{4, 4}
	if len(got) != len(want) {
		t.Fatalf("latency observations = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("observation %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// fixedLatency is an allocation-free backing store.
type fixedLatency uint64

func (l fixedLatency) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	return mem.Done(at + uint64(l))
}

// TestProbeAllocs: delivering an Event by value costs no allocation, and
// neither does choosing a victim. On a warmed cache a hit and a miss (which
// evicts) allocate nothing, with the probe installed and without it.
func TestProbeAllocs(t *testing.T) {
	var n int
	count := func(Event) { n++ }
	measure := func(probe func(Event), hit bool) float64 {
		c := MustNew(Config{Name: "L", SizeBytes: 4096, Ways: 4, Latency: 4, Policy: "lru"}, fixedLatency(100))
		c.SetProbe(probe)
		// 128 lines cycle through a 64-line LRU cache: every access misses
		// and evicts; the hit case reuses one resident line.
		var pa mem.Addr
		var at uint64
		step := func() {
			c.Access(pa, mem.Read, at, 0)
			at += 10
			if !hit {
				pa = (pa + mem.LineBytes) % (128 * mem.LineBytes)
			}
		}
		for i := 0; i < 256; i++ {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	if a := measure(count, true); a != 0 {
		t.Errorf("hit with probe: %v allocs/access, want 0", a)
	}
	if a := measure(count, false); a != 0 {
		t.Errorf("miss with probe: %v allocs/access, want 0", a)
	}
	if a := measure(nil, false); a != 0 {
		t.Errorf("miss without probe: %v allocs/access, want 0", a)
	}
	if n == 0 {
		t.Fatal("probe never fired")
	}
}
