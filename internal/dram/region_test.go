package dram

import (
	"cmp"
	"slices"
	"testing"

	"xmem/internal/mem"
)

// TestRegionMemoryObserver: a two-region memory hands its observer each
// scheduled command once, at the machine physical address the caller used
// (region 1's commands rebased by Base(1)), and the observer's row hits add
// up to the RowHits of Stats, which sums the regions.
func TestRegionMemoryObserver(t *testing.T) {
	region := func(capacity uint64) Config {
		return Config{
			Geometry: Geometry{Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
				RowBytes: 8 << 10, CapacityBytes: capacity},
			Timing: DefaultTiming(),
			Scheme: "ro:ra:ba:ch:co",
		}
	}
	m, err := NewRegionMemory(region(1<<20), region(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Base(1), mem.Addr(1<<20); got != want {
		t.Fatalf("Base(1) = %#x, want %#x", got, want)
	}

	type command struct {
		pa   mem.Addr
		kind mem.AccessKind
	}
	var seen []command
	var rowHits uint64
	m.SetObserver(func(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
		seen = append(seen, command{pa, kind})
		if rowHit {
			rowHits++
		}
	})

	// Reads and writebacks to both regions. The writebacks go to lines no
	// read touches, so no read is served from the write queue and every
	// access becomes one scheduled command.
	var issued []command
	at := uint64(0)
	for i := 0; i < 256; i++ {
		for r := 0; r < 2; r++ {
			rd := m.Base(r) + mem.Addr(i*mem.LineBytes)
			wb := m.Base(r) + mem.Addr(512<<10+i*mem.LineBytes)
			m.Access(rd, mem.Read, at, 0)
			m.Access(wb, mem.Writeback, at, 0)
			issued = append(issued, command{rd, mem.Read}, command{wb, mem.Writeback})
			at += 7
		}
	}
	m.DrainAll()

	byAddr := func(a, b command) int { return cmp.Compare(a.pa, b.pa) }
	slices.SortFunc(issued, byAddr)
	slices.SortFunc(seen, byAddr)
	if !slices.Equal(seen, issued) {
		t.Fatalf("observer saw %d commands, want the %d issued at their machine addresses", len(seen), len(issued))
	}
	for r := 0; r < 2; r++ {
		st := m.Controller(r).Stats()
		if st.Reads == 0 || st.Writes == 0 {
			t.Errorf("region %d served %d reads, %d writes; want both", r, st.Reads, st.Writes)
		}
	}
	st := m.Stats()
	if rowHits != st.RowHits {
		t.Errorf("observer counted %d row hits, Stats %d", rowHits, st.RowHits)
	}
	if n := st.RowHits + st.RowEmpty + st.RowConflicts; n != uint64(len(seen)) {
		t.Errorf("Stats row outcomes %d, observer calls %d", n, len(seen))
	}
	if rowHits == 0 || rowHits == uint64(len(seen)) {
		t.Errorf("%d row hits of %d commands; want both hits and misses", rowHits, len(seen))
	}
}
