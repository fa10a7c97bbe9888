package dram

import (
	"math/rand"
	"testing"

	"xmem/internal/mem"
)

// TestControllerInvariantsUnderRandomTraffic drives random request streams
// and checks the timing invariants that must hold regardless of schedule:
// every read completes no earlier than arrival plus the minimum service
// time, every future resolves, and the row-outcome counters account for
// every scheduled command.
func TestControllerInvariantsUnderRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		cfg := Config{
			Geometry: DefaultGeometry(),
			Timing:   DefaultTiming(),
			Scheme:   SchemeNames()[trial%len(SchemeNames())],
		}
		c := MustController(cfg)
		minService := cfg.Timing.CAS + cfg.Timing.Burst

		type pending struct {
			arrival uint64
			res     mem.Result
		}
		var reads []pending
		now := uint64(0)
		n := 200 + rng.Intn(300)
		for i := 0; i < n; i++ {
			now += uint64(rng.Intn(100))
			pa := mem.Addr(rng.Intn(1<<20)) << mem.LineShift
			if rng.Intn(4) == 0 {
				c.Access(pa, mem.Writeback, now, 0)
			} else {
				kind := mem.Read
				if rng.Intn(5) == 0 {
					kind = mem.Prefetch
				}
				reads = append(reads, pending{arrival: now, res: c.Access(pa, kind, now, 0)})
			}
		}
		c.DrainAll()
		for i, p := range reads {
			done, ok := p.res.Peek()
			if !ok {
				done = p.res.Wait()
			}
			if done < p.arrival+minService {
				t.Fatalf("trial %d read %d: done %d < arrival %d + min %d",
					trial, i, done, p.arrival, minService)
			}
		}
		st := c.Stats()
		if st.RowHits+st.RowEmpty+st.RowConflicts != st.Reads+st.Writes-st.WriteQueueHits+st.WriteQueueHits-st.WriteQueueHits {
			// Row outcomes are recorded per scheduled command; write-queue
			// hits never reach a bank.
			want := st.Reads + st.Writes
			if st.RowHits+st.RowEmpty+st.RowConflicts != want {
				t.Fatalf("trial %d: row outcomes %d != scheduled commands %d",
					trial, st.RowHits+st.RowEmpty+st.RowConflicts, want)
			}
		}
	}
}

// TestControllerCompletionsMonotonePerBankRow checks that back-to-back
// row hits on one bank complete in issue order, spaced at least one burst
// apart (bus occupancy is conserved).
func TestControllerCompletionsMonotonePerBankRow(t *testing.T) {
	g := Geometry{Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
		RowBytes: 8 << 10, CapacityBytes: 1 << 30}
	c := MustController(Config{Geometry: g, Timing: DefaultTiming(), Scheme: "ro:ra:ba:ch:co"})
	var results []mem.Result
	for i := 0; i < 64; i++ {
		results = append(results, c.Access(mem.Addr(i*64), mem.Read, 0, 0))
	}
	var prev uint64
	for i, r := range results {
		done := r.Wait()
		if i > 0 && done < prev+DefaultTiming().Burst {
			t.Fatalf("read %d done %d < prev %d + burst", i, done, prev)
		}
		prev = done
	}
}

// TestControllerBandwidthBound checks that a saturating stream cannot
// exceed the configured channel bandwidth.
func TestControllerBandwidthBound(t *testing.T) {
	g := Geometry{Channels: 1, RanksPerChannel: 1, BanksPerRank: 8,
		RowBytes: 8 << 10, CapacityBytes: 1 << 30}
	tm := DefaultTiming()
	c := MustController(Config{Geometry: g, Timing: tm, Scheme: "ro:ra:ba:ch:co"})
	const n = 2000
	var last mem.Result
	for i := 0; i < n; i++ {
		last = c.Access(mem.Addr(i*64), mem.Read, 0, 0)
	}
	done := last.Wait()
	minTime := uint64(n) * tm.Burst // bus-limited floor
	if done < minTime {
		t.Fatalf("%d lines served in %d cycles; bus floor is %d", n, done, minTime)
	}
	if done > minTime*3/2 {
		t.Fatalf("sequential stream took %d cycles; want near the bus floor %d", done, minTime)
	}
}

func TestControllerRecordsLatencyHistogram(t *testing.T) {
	c := testController(t, false)
	c.Access(addrAt(0, 0, 0), mem.Read, 0, 0).Wait()
	c.Access(addrAt(0, 0, 1), mem.Read, 1000, 0).Wait()
	h := c.Stats().ReadLatency
	if h.Count() != 2 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if h.Mean() != c.Stats().AvgDemandReadLatency() {
		t.Errorf("histogram mean %f != stats mean %f", h.Mean(), c.Stats().AvgDemandReadLatency())
	}
}

// TestControllerQueuesStayOrderedAndRelease drives out-of-order reads and
// writebacks through a channel whose rings wrap and grow, and checks the
// queue invariants the scheduler relies on after every access: each ring
// is ordered by arrival, equal reads by insertion (writes carry no
// sequence number); every free slot is the zero request, so no served
// request's Future stays reachable; and a new controller's rings hold no
// storage.
func TestControllerQueuesStayOrderedAndRelease(t *testing.T) {
	c := testController(t, false)
	ch := c.chans[0]
	if ch.readQ.buf != nil || ch.writeQ.buf != nil {
		t.Fatal("a new controller's queues hold storage")
	}
	check := func(q *queue, what string) {
		t.Helper()
		for i := 1; i < q.n; i++ {
			prev, r := q.at(i-1), q.at(i)
			if prev.arrival > r.arrival || prev.arrival == r.arrival && prev.seq > r.seq {
				t.Fatalf("%s queue out of order at %d: %+v before %+v", what, i, *prev, *r)
			}
		}
		for i := q.n; i < len(q.buf); i++ {
			if r := *q.at(i); r != (request{}) {
				t.Fatalf("%s queue keeps a served request in free slot %d: %+v", what, i, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(20))
	var now uint64
	var pending []mem.Result
	for i := 0; i < 4000; i++ {
		kind := mem.Read
		if rng.Intn(4) == 0 {
			kind = mem.Writeback
		}
		at := now
		if rng.Intn(4) == 0 {
			at -= min(at, uint64(rng.Intn(200)))
		} else {
			now += uint64(rng.Intn(3)) * 10
		}
		r := c.Access(addrAt(rng.Intn(8), rng.Intn(4), rng.Intn(128)), kind, at, 0)
		if _, ok := r.Peek(); !ok {
			pending = append(pending, r)
		}
		if len(pending) > 0 && rng.Intn(6) == 0 {
			j := rng.Intn(len(pending))
			pending[j].Wait()
			pending = append(pending[:j], pending[j+1:]...)
		}
		check(&ch.readQ, "read")
		check(&ch.writeQ, "write")
	}
	if len(ch.readQ.buf) <= 8 || len(ch.writeQ.buf) <= 8 {
		t.Fatalf("rings never grew: %d read and %d write slots", len(ch.readQ.buf), len(ch.writeQ.buf))
	}
	c.DrainAll()
	if ch.readQ.n != 0 || ch.writeQ.n != 0 {
		t.Fatalf("DrainAll left %d reads and %d writes", ch.readQ.n, ch.writeQ.n)
	}
	check(&ch.readQ, "read")
	check(&ch.writeQ, "write")
	for _, r := range pending {
		if _, ok := r.Peek(); !ok {
			t.Fatal("DrainAll left a read unresolved")
		}
	}
}
