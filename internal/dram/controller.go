package dram

import (
	"fmt"

	"xmem/internal/mem"
	"xmem/internal/obs"
)

// Stats aggregates controller activity.
type Stats struct {
	// Reads and Writes count scheduled commands.
	Reads  uint64
	Writes uint64
	// DemandReads excludes prefetches.
	DemandReads uint64
	// WriteQueueHits are reads served directly from the write queue.
	WriteQueueHits uint64
	// Row-buffer outcomes of scheduled commands.
	RowHits      uint64
	RowEmpty     uint64
	RowConflicts uint64
	// Latency sums (arrival to data completion), split by type.
	DemandReadLatencySum uint64
	WriteLatencySum      uint64
	// BusBusy accumulates data-bus occupancy across channels (bandwidth
	// utilisation = BusBusy / (channels × elapsed)).
	BusBusy uint64
	// ReadLatency histograms demand-read latencies for percentile
	// reporting (Figure 8's p95).
	ReadLatency obs.Histogram
}

// RowHitRate returns the fraction of scheduled commands that hit the open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowEmpty + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// AvgDemandReadLatency returns the mean demand-read latency in cycles.
func (s Stats) AvgDemandReadLatency() float64 {
	if s.DemandReads == 0 {
		return 0
	}
	return float64(s.DemandReadLatencySum) / float64(s.DemandReads)
}

// AvgWriteLatency returns the mean write (writeback) latency in cycles.
func (s Stats) AvgWriteLatency() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.WriteLatencySum) / float64(s.Writes)
}

// Config assembles a controller.
type Config struct {
	Geometry Geometry
	Timing   Timing
	// Scheme names the physical address mapping (see SchemeNames).
	Scheme string
	// IdealRBL makes every access a row hit — the upper-bound system of
	// §6.4 ("a system that has perfect RBL").
	IdealRBL bool
	// ReadQueueCap bounds the per-channel read queue (0 = 64). When a read
	// overflows it, the earliest-queued read still in the queue is
	// force-scheduled; under out-of-order arrivals that need not be the
	// read that arrived first.
	ReadQueueCap int
	// WriteDrainHigh is the write-queue level that forces write draining
	// even when reads are waiting (0 = 32).
	WriteDrainHigh int
	// FCFS disables row-hit-first reordering (ablation of the FR-FCFS
	// scheduler [84]): requests issue strictly oldest-first.
	FCFS bool
}

// request is one queued command, held by value in its channel's queue.
// Access decodes the address once and stores the per-channel bank index and
// the row, so the scheduler's scans read contiguous memory. A read's Future
// comes from its channel's current chunk (see futureChunk); a writeback
// allocates nothing.
type request struct {
	fut     *mem.Future // reads only: resolved by issue, forced through the channel
	addr    mem.Addr
	arrival uint64
	seq     uint64 // reads only: insertion order, for the read-queue cap
	row     int64
	bank    int32 // rank-major index within the channel
	kind    mem.AccessKind
}

// queue is a channel's read or write queue: a ring of requests ordered by
// arrival and, among equal arrivals, by insertion. The requests that have
// arrived by the channel clock are therefore always a prefix, and the
// scheduler reads only that prefix. The ring starts empty and doubles
// when full.
type queue struct {
	buf  []request // length a power of two, or zero
	head int       // slot of the front request
	n    int
}

// at returns the i-th request from the front.
func (q *queue) at(i int) *request { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// insert places r behind every request that arrived no later than it: an
// in-order arrival lands at the tail, an out-of-order one walks back from
// the tail to its place.
func (q *queue) insert(r request) {
	if q.n == len(q.buf) {
		buf := make([]request, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	i := q.n
	for ; i > 0; i-- {
		prev := q.at(i - 1)
		if prev.arrival <= r.arrival {
			break
		}
		*q.at(i) = *prev
	}
	*q.at(i) = r
	q.n++
}

// remove deletes the i-th request, moving only the requests ahead of it,
// and zeroes the slot it frees so the ring holds no resolved Future.
func (q *queue) remove(i int) {
	for ; i > 0; i-- {
		*q.at(i) = *q.at(i - 1)
	}
	*q.at(0) = request{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// firstQueued returns the request inserted earliest. Under out-of-order
// arrivals it need not be the front.
func (q *queue) firstQueued() *request {
	first := q.at(0)
	for i := 1; i < q.n; i++ {
		if r := q.at(i); r.seq < first.seq {
			first = r
		}
	}
	return first
}

type bank struct {
	openRow    int64
	readyAt    uint64
	activateAt uint64
}

// futureChunk is the number of read Futures a channel allocates at once,
// when a read finds its current chunk used up. A slot is never recycled:
// cache fill slots, the core's window, span state and bench/'s replay stack
// keep Results that point at a read's Future after the read has left the
// queue, and a reused slot would let a stale Result read another read's
// completion. A chunk is collected once no Result points into it. Sixteen
// 24-byte Futures fill one 384-byte size class exactly; Go puts an 8-byte
// header in front of any pointerful object above 512 bytes and rounds the
// total up to the next size class, so 64 would take 1,792 B, 28 B each.
const futureChunk = 16

type channel struct {
	ctl          *Controller
	banks        []bank
	banksPerRank int
	busReadyAt   uint64
	clock        uint64
	readQ        queue
	writeQ       queue
	readSeq      uint64       // seq of the next read inserted
	futures      []mem.Future // unused tail of the current Future chunk
	// draining latches write-drain mode: once the write queue reaches the
	// high watermark, writes drain in a batch down to the low watermark
	// rather than ping-ponging rows with interleaved reads.
	draining bool
}

// Observer is notified of every scheduled DRAM command with its row-buffer
// outcome (rowHit false covers both empty rows and conflicts), its arrival
// cycle, and the cycle its data burst completes. The observability layer
// uses it for per-atom row-locality attribution, service-latency
// histograms, and span DRAM stages; a nil observer costs one branch per
// command. The callback fires at scheduling time — under lazy FR-FCFS that
// may be during a later access's drain — with fully-computed timing.
type Observer func(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64)

// Controller is the memory controller plus the DRAM devices behind it.
// It is not safe for concurrent use; each simulated machine owns its
// controller (the multi-core model shares one controller under a single
// simulation goroutine, never across goroutines).
type Controller struct {
	geom     Geometry
	timing   Timing
	mapping  *Mapping
	idealRBL bool
	fcfs     bool
	readCap  int
	writeHi  int
	chans    []*channel
	stats    Stats
	obs      Observer
}

// SetObserver installs a scheduled-command observer.
func (c *Controller) SetObserver(f Observer) { c.obs = f }

// NewController builds a controller, or fails on invalid configuration.
func NewController(cfg Config) (*Controller, error) {
	mapping, err := NewMapping(cfg.Scheme, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	if cfg.Timing.Burst == 0 || cfg.Timing.CAS == 0 {
		return nil, fmt.Errorf("dram: zero timing parameters")
	}
	readCap := cfg.ReadQueueCap
	if readCap <= 0 {
		readCap = 64
	}
	writeHi := cfg.WriteDrainHigh
	if writeHi <= 0 {
		writeHi = 32
	}
	c := &Controller{
		geom:     cfg.Geometry,
		timing:   cfg.Timing,
		mapping:  mapping,
		idealRBL: cfg.IdealRBL,
		fcfs:     cfg.FCFS,
		readCap:  readCap,
		writeHi:  writeHi,
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		ch := &channel{
			ctl:          c,
			banks:        make([]bank, cfg.Geometry.BanksPerChannel()),
			banksPerRank: cfg.Geometry.BanksPerRank,
		}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		c.chans = append(c.chans, ch)
	}
	return c, nil
}

// MustController is NewController for known-good configs.
func MustController(cfg Config) *Controller {
	c, err := NewController(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Mapping returns the active address mapping.
func (c *Controller) Mapping() *Mapping { return c.mapping }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// Access implements cache.Lower: reads return a pending Future scheduled
// under FR-FCFS; writebacks enter the write queue and complete immediately
// from the requester's point of view.
func (c *Controller) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	pa = mem.LineAddr(pa)
	loc := c.mapping.Map(pa)
	ch := c.chans[loc.Channel]
	req := request{addr: pa, arrival: at, row: int64(loc.Row),
		bank: int32(loc.Rank*ch.banksPerRank + loc.Bank), kind: kind}

	if kind == mem.Writeback {
		ch.writeQ.insert(req)
		// Bound the write queue so a write-only phase cannot grow it
		// without limit.
		for ch.writeQ.n > 4*c.writeHi {
			c.step(ch)
		}
		return mem.Done(at)
	}

	// Write-queue hit: the line's latest data is in the controller. Every
	// queued write counts, arrived or not.
	for i := 0; i < ch.writeQ.n; i++ {
		if ch.writeQ.at(i).addr == pa {
			c.stats.WriteQueueHits++
			if kind.IsDemand() {
				c.stats.DemandReads++
				c.stats.DemandReadLatencySum += c.timing.CAS
			}
			return mem.Done(at + c.timing.CAS)
		}
	}
	if len(ch.futures) == 0 {
		ch.futures = make([]mem.Future, futureChunk)
	}
	req.fut = &ch.futures[0]
	ch.futures = ch.futures[1:]
	req.fut.Init(ch)
	req.seq = ch.readSeq
	ch.readSeq++
	ch.readQ.insert(req)
	if ch.readQ.n > c.readCap {
		ch.Force(ch.readQ.firstQueued().fut)
	}
	return mem.Pending(req.fut)
}

// Force implements mem.Forcer: it steps the channel's scheduler until f,
// the future of one of its reads, is resolved.
func (ch *channel) Force(f *mem.Future) {
	for !f.Resolved() {
		if !ch.ctl.step(ch) {
			panic("dram: scheduler stalled with unresolved request")
		}
	}
}

// DrainAll schedules every outstanding request (end of simulation).
func (c *Controller) DrainAll() {
	for _, ch := range c.chans {
		for ch.readQ.n > 0 || ch.writeQ.n > 0 {
			if !c.step(ch) {
				break
			}
		}
	}
}

// pick returns the index of the request to schedule from q, or -1 when
// none has arrived by the channel clock. Under FR-FCFS it is the first row
// hit among the arrived requests, otherwise the front; under plain FCFS,
// always the front. Queue order makes the first the earliest arrival, ties
// going to the earliest inserted.
func (ch *channel) pick(q *queue, fcfs bool) int {
	if q.n == 0 || q.at(0).arrival > ch.clock {
		return -1
	}
	if !fcfs {
		for i := 0; i < q.n; i++ {
			r := q.at(i)
			if r.arrival > ch.clock {
				break
			}
			if ch.banks[r.bank].openRow == r.row {
				return i
			}
		}
	}
	return 0
}

// pickWriteReadIdle picks, among the arrived writes to banks with no
// arrived read, the first row hit under FR-FCFS or else the first, as pick
// does; -1 when every arrived write's bank has read traffic.
func (ch *channel) pickWriteReadIdle(fcfs bool) int {
	var readBanks uint64
	for i := 0; i < ch.readQ.n; i++ {
		r := ch.readQ.at(i)
		if r.arrival > ch.clock {
			break
		}
		readBanks |= 1 << uint(r.bank)
	}
	best := -1
	for i := 0; i < ch.writeQ.n; i++ {
		w := ch.writeQ.at(i)
		if w.arrival > ch.clock {
			break
		}
		if readBanks&(1<<uint(w.bank)) != 0 {
			continue
		}
		if fcfs || ch.banks[w.bank].openRow == w.row {
			return i
		}
		if best < 0 {
			best = i
		}
	}
	return best
}

// step performs one scheduling action on the channel: issue one command or
// advance the clock to the next arrival. It returns false when the channel
// has nothing left to do.
func (c *Controller) step(ch *channel) bool {
	readIdx := ch.pick(&ch.readQ, c.fcfs)
	writeIdx := ch.pick(&ch.writeQ, c.fcfs)

	if writeIdx >= 0 && readIdx >= 0 {
		// Prefer writes whose bank has no waiting read: draining them
		// costs the read streams nothing (bank-aware write scheduling).
		if idle := ch.pickWriteReadIdle(c.fcfs); idle >= 0 {
			writeIdx = idle
		}
	}

	switch {
	case readIdx < 0 && writeIdx < 0:
		// Nothing has arrived: jump to the earlier of the two fronts.
		switch {
		case ch.readQ.n == 0 && ch.writeQ.n == 0:
			return false
		case ch.writeQ.n == 0 || ch.readQ.n > 0 && ch.readQ.at(0).arrival < ch.writeQ.at(0).arrival:
			ch.clock = ch.readQ.at(0).arrival
		default:
			ch.clock = ch.writeQ.at(0).arrival
		}
		return true
	case writeIdx >= 0 && (readIdx < 0 || ch.draining || ch.writeQ.n >= c.writeHi):
		// Writes drain opportunistically when no read waits, and in
		// batches (high watermark down to low) otherwise.
		if ch.writeQ.n >= c.writeHi {
			ch.draining = true
		}
		c.issue(ch, ch.writeQ.at(writeIdx))
		ch.writeQ.remove(writeIdx)
		if ch.writeQ.n <= c.writeHi/4 {
			ch.draining = false
		}
	default:
		c.issue(ch, ch.readQ.at(readIdx))
		ch.readQ.remove(readIdx)
	}
	return true
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// issue models the bank and bus timing of one command.
func (c *Controller) issue(ch *channel, r *request) {
	b := &ch.banks[r.bank]
	start := max64(max64(ch.clock, r.arrival), b.readyAt)

	var lat uint64
	rowHit := false
	switch {
	case c.idealRBL || b.openRow == r.row:
		c.stats.RowHits++
		rowHit = true
		lat = c.timing.CAS
	case b.openRow < 0:
		c.stats.RowEmpty++
		lat = c.timing.RCD + c.timing.CAS
		b.activateAt = start
	default:
		c.stats.RowConflicts++
		// Precharge may not begin before tRAS after the last activate.
		pre := max64(start, b.activateAt+c.timing.RAS)
		lat = (pre - start) + c.timing.RP + c.timing.RCD + c.timing.CAS
		b.activateAt = pre + c.timing.RP
	}
	b.openRow = r.row
	if r.kind == mem.Writeback {
		lat += c.timing.WritePenalty
	}

	dataAt := max64(start+lat, ch.busReadyAt)
	done := dataAt + c.timing.Burst
	ch.busReadyAt = done
	if c.obs != nil {
		c.obs(r.addr, r.kind, rowHit, r.arrival, done)
	}
	// Column commands pipeline: the bank can accept the next CAS one
	// burst after this one issued (tCCD), so consecutive row hits stream
	// at the bus rate rather than serializing on the access latency.
	casAt := start + lat - c.timing.CAS
	b.readyAt = casAt + c.timing.Burst
	ch.clock = start
	c.stats.BusBusy += c.timing.Burst

	if r.kind == mem.Writeback {
		c.stats.Writes++
		c.stats.WriteLatencySum += done - r.arrival
		return
	}
	c.stats.Reads++
	if r.kind.IsDemand() {
		c.stats.DemandReads++
		c.stats.DemandReadLatencySum += done - r.arrival
		c.stats.ReadLatency.Observe(done - r.arrival)
	}
	r.fut.Resolve(done)
}
