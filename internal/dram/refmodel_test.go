package dram

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"xmem/internal/mem"
)

// This file preserves the pointer-queue controller (FR-FCFS queues of
// *request, each read's Future a field of its request) and the mapping
// that recomputes every field width per call, as test-only reference
// models. FuzzControllerMatchesReference drives them and the by-value
// controller through identical request streams and asserts identical
// stats, observer calls, read completions and future-resolution order.

type refRequest struct {
	fut     mem.Future // reads only: resolved by issue, forced through the channel
	addr    mem.Addr
	kind    mem.AccessKind
	arrival uint64
	loc     Location
}

type refChannel struct {
	ctl          *refController
	banks        []bank
	banksPerRank int
	busReadyAt   uint64
	clock        uint64
	readQ        []*refRequest
	writeQ       []*refRequest
	draining     bool
}

type refController struct {
	geom     Geometry
	timing   Timing
	mapping  *refMapping
	idealRBL bool
	fcfs     bool
	readCap  int
	writeHi  int
	chans    []*refChannel
	stats    Stats
	obs      Observer
}

func newRefController(cfg Config) (*refController, error) {
	mapping, err := newRefMapping(cfg.Scheme, cfg.Geometry)
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
	c := &refController{
		geom:     cfg.Geometry,
		timing:   cfg.Timing,
		mapping:  mapping,
		idealRBL: cfg.IdealRBL,
		fcfs:     cfg.FCFS,
		readCap:  readCap,
		writeHi:  writeHi,
	}
	for i := 0; i < cfg.Geometry.Channels; i++ {
		ch := &refChannel{
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

func (c *refController) Stats() Stats { return c.stats }

func (c *refController) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	pa = mem.LineAddr(pa)
	loc := c.mapping.Map(pa)
	ch := c.chans[loc.Channel]

	if kind == mem.Writeback {
		ch.writeQ = append(ch.writeQ, &refRequest{addr: pa, kind: kind, arrival: at, loc: loc})
		for len(ch.writeQ) > 4*c.writeHi {
			c.step(ch)
		}
		return mem.Done(at)
	}

	for _, w := range ch.writeQ {
		if w.addr == pa {
			c.stats.WriteQueueHits++
			if kind.IsDemand() {
				c.stats.DemandReads++
				c.stats.DemandReadLatencySum += c.timing.CAS
			}
			return mem.Done(at + c.timing.CAS)
		}
	}
	req := &refRequest{addr: pa, kind: kind, arrival: at, loc: loc}
	req.fut.Init(ch)
	ch.readQ = append(ch.readQ, req)
	if len(ch.readQ) > c.readCap {
		ch.Force(&ch.readQ[0].fut)
	}
	return mem.Pending(&req.fut)
}

func (ch *refChannel) Force(f *mem.Future) {
	for !f.Resolved() {
		if !ch.ctl.step(ch) {
			panic("dram: scheduler stalled with unresolved request")
		}
	}
}

func (c *refController) DrainAll() {
	for _, ch := range c.chans {
		for len(ch.readQ) > 0 || len(ch.writeQ) > 0 {
			if !c.step(ch) {
				break
			}
		}
	}
}

func (ch *refChannel) pick(q []*refRequest, fcfs bool) int {
	oldest, oldestHit := -1, -1
	for i, r := range q {
		if r.arrival > ch.clock {
			continue
		}
		if oldest == -1 || r.arrival < q[oldest].arrival {
			oldest = i
		}
		if fcfs {
			continue
		}
		if ch.banks[ch.bankIndex(r.loc)].openRow == int64(r.loc.Row) {
			if oldestHit == -1 || r.arrival < q[oldestHit].arrival {
				oldestHit = i
			}
		}
	}
	if oldestHit >= 0 {
		return oldestHit
	}
	return oldest
}

func (ch *refChannel) pickWriteReadIdle(fcfs bool) int {
	var readBanks uint64
	for _, r := range ch.readQ {
		if r.arrival <= ch.clock {
			readBanks |= 1 << uint(ch.bankIndex(r.loc))
		}
	}
	best, bestHit := -1, -1
	for i, w := range ch.writeQ {
		if w.arrival > ch.clock || readBanks&(1<<uint(ch.bankIndex(w.loc))) != 0 {
			continue
		}
		if best == -1 || w.arrival < ch.writeQ[best].arrival {
			best = i
		}
		if !fcfs && ch.banks[ch.bankIndex(w.loc)].openRow == int64(w.loc.Row) {
			if bestHit == -1 || w.arrival < ch.writeQ[bestHit].arrival {
				bestHit = i
			}
		}
	}
	if bestHit >= 0 {
		return bestHit
	}
	return best
}

func (c *refController) step(ch *refChannel) bool {
	readIdx := ch.pick(ch.readQ, c.fcfs)
	writeIdx := ch.pick(ch.writeQ, c.fcfs)

	if writeIdx >= 0 && readIdx >= 0 {
		if idle := ch.pickWriteReadIdle(c.fcfs); idle >= 0 {
			writeIdx = idle
		}
	}

	switch {
	case readIdx < 0 && writeIdx < 0:
		next := uint64(0)
		found := false
		for _, r := range ch.readQ {
			if !found || r.arrival < next {
				next, found = r.arrival, true
			}
		}
		for _, r := range ch.writeQ {
			if !found || r.arrival < next {
				next, found = r.arrival, true
			}
		}
		if !found {
			return false
		}
		ch.clock = next
		return true
	case writeIdx >= 0 && (readIdx < 0 || ch.draining || len(ch.writeQ) >= c.writeHi):
		if len(ch.writeQ) >= c.writeHi {
			ch.draining = true
		}
		c.issue(ch, ch.writeQ[writeIdx])
		ch.writeQ = append(ch.writeQ[:writeIdx], ch.writeQ[writeIdx+1:]...)
		if len(ch.writeQ) <= c.writeHi/4 {
			ch.draining = false
		}
	default:
		c.issue(ch, ch.readQ[readIdx])
		ch.readQ = append(ch.readQ[:readIdx], ch.readQ[readIdx+1:]...)
	}
	return true
}

func (c *refController) issue(ch *refChannel, r *refRequest) {
	b := &ch.banks[ch.bankIndex(r.loc)]
	start := max64(max64(ch.clock, r.arrival), b.readyAt)

	var lat uint64
	rowHit := false
	switch {
	case c.idealRBL || b.openRow == int64(r.loc.Row):
		c.stats.RowHits++
		rowHit = true
		lat = c.timing.CAS
	case b.openRow < 0:
		c.stats.RowEmpty++
		lat = c.timing.RCD + c.timing.CAS
		b.activateAt = start
	default:
		c.stats.RowConflicts++
		pre := max64(start, b.activateAt+c.timing.RAS)
		lat = (pre - start) + c.timing.RP + c.timing.RCD + c.timing.CAS
		b.activateAt = pre + c.timing.RP
	}
	b.openRow = int64(r.loc.Row)
	if r.kind == mem.Writeback {
		lat += c.timing.WritePenalty
	}

	dataAt := max64(start+lat, ch.busReadyAt)
	done := dataAt + c.timing.Burst
	ch.busReadyAt = done
	if c.obs != nil {
		c.obs(r.addr, r.kind, rowHit, r.arrival, done)
	}
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

func (ch *refChannel) bankIndex(l Location) int {
	return l.Rank*ch.banksPerRank + l.Bank
}

type refField int

const (
	refChan refField = iota
	refRank
	refBank
	refRow
	refCol
)

type refMapping struct {
	name     string
	orderLSB []refField
	geom     Geometry
	xorBank  bool
}

func newRefMapping(name string, g Geometry) (*refMapping, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &refMapping{name: name, geom: g}
	base := name
	switch name {
	case "bank-xor":
		base = "ro:ra:ba:ch:co"
		m.xorBank = true
	case "perm":
		base = "ro:ch:ra:ba:co"
		m.xorBank = true
	}
	parts := strings.Split(base, ":")
	if len(parts) != 5 {
		return nil, fmt.Errorf("dram: unknown mapping scheme %q", name)
	}
	seen := map[string]bool{}
	for i := len(parts) - 1; i >= 0; i-- {
		var f refField
		switch parts[i] {
		case "ch":
			f = refChan
		case "ra":
			f = refRank
		case "ba":
			f = refBank
		case "ro":
			f = refRow
		case "co":
			f = refCol
		default:
			return nil, fmt.Errorf("dram: unknown mapping field %q in %q", parts[i], name)
		}
		if seen[parts[i]] {
			return nil, fmt.Errorf("dram: duplicate field %q in %q", parts[i], name)
		}
		seen[parts[i]] = true
		m.orderLSB = append(m.orderLSB, f)
	}
	return m, nil
}

func (m *refMapping) fieldBits(f refField) int {
	switch f {
	case refChan:
		return bits.Len(uint(m.geom.Channels)) - 1
	case refRank:
		return bits.Len(uint(m.geom.RanksPerChannel)) - 1
	case refBank:
		return bits.Len(uint(m.geom.BanksPerRank)) - 1
	case refCol:
		return bits.Len(uint(m.geom.RowBytes/mem.LineBytes)) - 1
	default:
		return bits.Len(uint(m.geom.RowsPerBank())) - 1
	}
}

func (m *refMapping) Map(pa mem.Addr) Location {
	line := mem.LineIndex(pa)
	var loc Location
	for _, f := range m.orderLSB {
		n := m.fieldBits(f)
		val := line & (1<<uint(n) - 1)
		line >>= uint(n)
		switch f {
		case refChan:
			loc.Channel = int(val)
		case refRank:
			loc.Rank = int(val)
		case refBank:
			loc.Bank = int(val)
		case refRow:
			loc.Row = val
		case refCol:
			loc.Col = val
		}
	}
	if m.xorBank && m.geom.BanksPerRank > 1 {
		loc.Bank ^= int(loc.Row) & (m.geom.BanksPerRank - 1)
	}
	return loc
}

// byteStream decodes fuzz input; it reads zeros once exhausted.
type byteStream struct {
	b []byte
	i int
}

func (s *byteStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *byteStream) more() bool { return s.i < len(s.b) }

// splitmix64 spreads i over all 64 bits (for addresses the stream never
// touches).
func splitmix64(i uint64) uint64 {
	i += 0x9e3779b97f4a7c15
	i = (i ^ i>>30) * 0xbf58476d1ce4e5b9
	i = (i ^ i>>27) * 0x94d049bb133111eb
	return i ^ i>>31
}

// decodeControllerConfig draws a small geometry (1 to 64 banks per
// channel, the most Validate accepts, so the top bit of pickWriteReadIdle's
// bank mask is reachable; capacities reach below one row per bank), any
// scheme, FCFS and IdealRBL on or off, and queue limits small enough that
// overflow forcing and write draining fire.
func decodeControllerConfig(s *byteStream) (cfg Config, spread uint) {
	b0, b1, b2, b3, b4 := s.next(), s.next(), s.next(), s.next(), s.next()
	rankBits := b1 >> 1 & 1
	cfg.Geometry = Geometry{
		Channels:        1 << (b1 & 1),
		RanksPerChannel: 1 << rankBits,
		BanksPerRank:    1 << ((b1 >> 2 & 7) % (7 - rankBits)),
		RowBytes:        mem.LineBytes << (b2 & 7),
		CapacityBytes:   1 << (10 + b2>>3&15),
	}
	cfg.Scheme = SchemeNames()[int(b0)%len(SchemeNames())]
	cfg.Timing = DefaultTiming()
	if b4&8 != 0 {
		cfg.Timing = NVMTiming()
	}
	cfg.FCFS = b3&1 != 0
	cfg.IdealRBL = b3&2 != 0
	cfg.ReadQueueCap = 1 + int(b3>>2&7)
	cfg.WriteDrainHigh = 1 + int(b4&7)
	return cfg, uint(b4 >> 4 & 7)
}

// dramCall is one observer callback.
type dramCall struct {
	pa             mem.Addr
	kind           mem.AccessKind
	rowHit         bool
	arrival, doneC uint64
}

// dramSide is one controller under test with everything it is compared on.
type dramSide struct {
	access   func(pa mem.Addr, kind mem.AccessKind, at uint64) mem.Result
	drainAll func()
	stats    func() Stats
	results  []mem.Result
	pending  []int // indexes into results not yet resolved
	order    []int // indexes in the order their futures resolved
	calls    []dramCall
}

// sweep moves newly resolved futures from pending to order. The observer
// calls it before recording each command, and a read's future resolves
// right after its command is observed, so order is exact.
func (d *dramSide) sweep() {
	kept := d.pending[:0]
	for _, i := range d.pending {
		if _, ok := d.results[i].Peek(); ok {
			d.order = append(d.order, i)
		} else {
			kept = append(kept, i)
		}
	}
	d.pending = kept
}

func (d *dramSide) observe(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
	d.sweep()
	d.calls = append(d.calls, dramCall{pa, kind, rowHit, arrival, done})
}

func (d *dramSide) do(pa mem.Addr, kind mem.AccessKind, at uint64) {
	r := d.access(pa, kind, at)
	d.sweep()
	if _, ok := r.Peek(); !ok {
		d.pending = append(d.pending, len(d.results))
	}
	d.results = append(d.results, r)
}

// dramCoverage counts the scheduler paths one stream exercised.
type dramCoverage struct {
	overflowForces, drainOps, wqHits, outOfOrder, unmappedRows int
	// Paths where arrival order and insertion order differ: a read-cap
	// force whose earliest-queued read is not the earliest to arrive, an
	// arrival queued ahead of a request to the same bank, and an arrival
	// equal to one already in its queue.
	capForceNotFirstArrival, aheadOfSameBank, equalArrivals int
	// Writes issued while an arrived read and an arrived write share bank
	// 63: the top bit of pickWriteReadIdle's bank mask keeps that write
	// out of its pick.
	lastBankMasked int
}

func (c *dramCoverage) add(o dramCoverage) {
	c.overflowForces += o.overflowForces
	c.drainOps += o.drainOps
	c.wqHits += o.wqHits
	c.outOfOrder += o.outOfOrder
	c.unmappedRows += o.unmappedRows
	c.capForceNotFirstArrival += o.capForceNotFirstArrival
	c.aheadOfSameBank += o.aheadOfSameBank
	c.equalArrivals += o.equalArrivals
	c.lastBankMasked += o.lastBankMasked
}

// noteWrite counts a write command issued while bank 63's bit of
// pickWriteReadIdle's mask is set and excludes an arrived write. The
// reference's queues still hold the write and its clock is the step's.
func (c *dramCoverage) noteWrite(ref *refController, pa mem.Addr) {
	ch := ref.chans[ref.mapping.Map(pa).Channel]
	arrivedOn63 := func(q []*refRequest) bool {
		for _, r := range q {
			if r.arrival <= ch.clock && ch.bankIndex(r.loc) == 63 {
				return true
			}
		}
		return false
	}
	if arrivedOn63(ch.readQ) && arrivedOn63(ch.writeQ) {
		c.lastBankMasked++
	}
}

// noteQueued counts the arrival-order paths a request arriving at cycle
// at takes, read from the reference's queues before it is queued.
func (c *dramCoverage) noteQueued(ref *refController, pa mem.Addr, kind mem.AccessKind, at uint64) {
	pa = mem.LineAddr(pa)
	loc := ref.mapping.Map(pa)
	ch := ref.chans[loc.Channel]
	bank := ch.bankIndex(loc)
	q := ch.writeQ
	if kind != mem.Writeback {
		for _, w := range ch.writeQ {
			if w.addr == pa {
				return // a write-queue hit queues nothing
			}
		}
		q = ch.readQ
		if len(q) >= ref.readCap {
			// The cap forces q[0], the earliest queued.
			earlier := at < q[0].arrival
			for _, r := range q[1:] {
				earlier = earlier || r.arrival < q[0].arrival
			}
			if earlier {
				c.capForceNotFirstArrival++
			}
		}
	}
	ahead, equal := false, false
	for _, r := range q {
		ahead = ahead || r.arrival > at && ch.bankIndex(r.loc) == bank
		equal = equal || r.arrival == at
	}
	if ahead {
		c.aheadOfSameBank++
	}
	if equal {
		c.equalArrivals++
	}
}

// runControllerDiff decodes data into a config and an op stream, runs it
// on the by-value controller and the reference, and fails t at the first
// difference.
func runControllerDiff(t testing.TB, data []byte) dramCoverage {
	s := &byteStream{b: data}
	cfg, spread := decodeControllerConfig(s)
	var cov dramCoverage
	if cfg.Geometry.RowsPerBank() == 0 {
		cov.unmappedRows++
	}
	got, err := NewController(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	ref, err := newRefController(cfg)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	g := &dramSide{access: func(pa mem.Addr, k mem.AccessKind, at uint64) mem.Result { return got.Access(pa, k, at, 0) },
		drainAll: got.DrainAll, stats: got.Stats}
	r := &dramSide{access: func(pa mem.Addr, k mem.AccessKind, at uint64) mem.Result { return ref.Access(pa, k, at, 0) },
		drainAll: ref.DrainAll, stats: ref.Stats}
	got.SetObserver(g.observe)
	ref.obs = func(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
		if kind == mem.Writeback {
			cov.noteWrite(ref, pa)
		}
		r.observe(pa, kind, rowHit, arrival, done)
	}

	checkMap := func(pa mem.Addr) {
		if gl, rl := got.Mapping().Map(pa), ref.mapping.Map(pa); gl != rl {
			t.Fatalf("%+v: Map(%#x) = %+v, reference %+v", cfg, pa, gl, rl)
		}
	}
	for i := uint64(0); i < 64; i++ {
		checkMap(mem.Addr(splitmix64(i ^ uint64(len(data))<<32)))
	}

	var now uint64
	for op := 0; s.more() && op < 300; op++ {
		code := s.next()
		switch code % 8 {
		case 0, 1, 2, 3, 4, 5:
			kind := [...]mem.AccessKind{mem.Read, mem.Read, mem.Read, mem.Prefetch, mem.Writeback, mem.Writeback}[code%8]
			pa := mem.Addr(uint64(s.next()) << (mem.LineShift + spread))
			at, tb := now, s.next()
			if tb&0x80 != 0 {
				// Out of order: arrive before the latest request.
				cov.outOfOrder++
				if d := uint64(tb & 0x7f); d < at {
					at -= d
				} else {
					at = 0
				}
			} else {
				now += uint64(tb)
				at = now
			}
			checkMap(pa)
			cov.noteQueued(ref, pa, kind, at)
			hits, resolved := ref.stats.WriteQueueHits, len(r.order)
			g.do(pa, kind, at)
			r.do(pa, kind, at)
			if kind != mem.Writeback && ref.stats.WriteQueueHits == hits && len(r.order) > resolved {
				cov.overflowForces++
			}
			if ref.stats.WriteQueueHits > hits {
				cov.wqHits++
			}
		case 6:
			if len(g.results) == 0 {
				continue
			}
			i := int(s.next()) % len(g.results)
			g.results[i].Wait()
			g.sweep()
			r.results[i].Wait()
			r.sweep()
		default:
			g.drainAll()
			g.sweep()
			r.drainAll()
			r.sweep()
		}
		for _, ch := range ref.chans {
			if ch.draining {
				cov.drainOps++
			}
		}
		compareDram(t, cfg, op, g, r)
	}
	g.drainAll()
	g.sweep()
	r.drainAll()
	r.sweep()
	compareDram(t, cfg, -1, g, r)
	return cov
}

func compareDram(t testing.TB, cfg Config, op int, g, r *dramSide) {
	t.Helper()
	if gs, rs := g.stats(), r.stats(); gs != rs {
		t.Fatalf("%+v op %d: stats = %+v, reference %+v", cfg, op, gs, rs)
	}
	for i := range r.results {
		gc, gok := g.results[i].Peek()
		rc, rok := r.results[i].Peek()
		if gc != rc || gok != rok {
			t.Fatalf("%+v op %d: read %d = (%d, %v), reference (%d, %v)", cfg, op, i, gc, gok, rc, rok)
		}
	}
	if i, ok := equalSeq(g.order, r.order); !ok {
		t.Fatalf("%+v op %d: future resolution order diverges at %d: %v, reference %v", cfg, op, i, g.order, r.order)
	}
	if i, ok := equalSeq(g.calls, r.calls); !ok {
		t.Fatalf("%+v op %d: observer calls diverge at %d of %d/%d", cfg, op, i, len(g.calls), len(r.calls))
	}
}

func equalSeq[T comparable](a, b []T) (int, bool) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

// controllerSeeds are the corpus plain go test runs.
func controllerSeeds() [][]byte {
	rng := rand.New(rand.NewSource(15))
	seeds := make([][]byte, 240)
	for i := range seeds {
		seeds[i] = make([]byte, 64+rng.Intn(700))
		rng.Read(seeds[i])
		// Every scheme, channel count, FCFS and IdealRBL combination.
		seeds[i][0] = byte(i % 9)
		seeds[i][1] = seeds[i][1]&^1 | byte(i/9&1)
		seeds[i][3] = seeds[i][3]&^3 | byte(i/18&3)
	}
	return append(seeds, lastBankSeeds()...)
}

// lastBankSeeds are streams on one 64-bank channel (scheme
// "ro:ra:ba:ch:co" with one-line rows, so a line's low six bits are its
// bank) whose lines all sit in bank 63 or bank 5. Reads and writes meet on
// bank 63, the top bit of pickWriteReadIdle's mask, which random streams
// almost never reach.
func lastBankSeeds() [][]byte {
	rng := rand.New(rand.NewSource(63))
	lines := []byte{63, 127, 191, 255, 5, 69}
	seeds := make([][]byte, 8)
	for i := range seeds {
		// One channel and rank, 64 banks per rank, 1 MiB, read-queue cap
		// 8, write drain from 2, no address spread; FCFS and IdealRBL
		// vary.
		seed := []byte{1, 6 << 2, 10 << 3, 7<<2 | byte(i&3), 1}
		for op := 0; op < 200; op++ {
			code := byte(rng.Intn(8))
			switch {
			case code < 6:
				tb := byte(rng.Intn(16))
				if rng.Intn(4) == 0 {
					tb |= 0x80
				}
				seed = append(seed, code, lines[rng.Intn(len(lines))], tb)
			case code == 6:
				seed = append(seed, code, byte(rng.Intn(256)))
			case rng.Intn(4) == 0:
				seed = append(seed, code)
			}
		}
		seeds[i] = seed
	}
	return seeds
}

// FuzzControllerMatchesReference: the by-value FR-FCFS controller and the
// precomputed mapping behave exactly like the pointer-queue reference on
// any stream of reads, prefetches and writebacks, in order or not, with
// futures forced in any order.
func FuzzControllerMatchesReference(f *testing.F) {
	for _, s := range controllerSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runControllerDiff(t, data) })
}

// TestControllerSeedsCoverScheduler: the seed corpus reaches every
// scheduler path the differential is meant to pin.
func TestControllerSeedsCoverScheduler(t *testing.T) {
	var total dramCoverage
	configs := map[string]bool{}
	banks := map[int]bool{}
	for _, s := range controllerSeeds() {
		total.add(runControllerDiff(t, s))
		cfg, _ := decodeControllerConfig(&byteStream{b: s})
		configs[fmt.Sprintf("%s/%d/%v/%v", cfg.Scheme, cfg.Geometry.Channels, cfg.FCFS, cfg.IdealRBL)] = true
		banks[cfg.Geometry.BanksPerChannel()] = true
	}
	t.Logf("%d seeds, %d configurations: %+v", len(controllerSeeds()), len(configs), total)
	if total.overflowForces == 0 || total.drainOps == 0 || total.wqHits == 0 || total.outOfOrder == 0 || total.unmappedRows == 0 ||
		total.capForceNotFirstArrival == 0 || total.aheadOfSameBank == 0 || total.equalArrivals == 0 || total.lastBankMasked == 0 {
		t.Fatalf("seed corpus misses a path: %+v", total)
	}
	if want := len(SchemeNames()) * 2 * 2 * 2; len(configs) != want {
		t.Fatalf("seed corpus covers %d of %d scheme/channel/FCFS/IdealRBL combinations", len(configs), want)
	}
	for n := 1; n <= 64; n *= 2 {
		if !banks[n] {
			t.Fatalf("seed corpus has no channel of %d banks", n)
		}
	}
}
