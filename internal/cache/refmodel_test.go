package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// This file preserves the cache that tracked residency in a per-line valid
// array and scanned every tag as the test-only reference refCache, with the
// replacement policies that rescanned a set after each aging step as
// refLRUPolicy and refRRIP. FuzzCacheMatchesReference drives it and the
// fingerprinted, fill-counted Cache through identical op streams over a
// fake lower level and asserts identical results, stats, probe events,
// training calls, lower-level requests and residency after every op.

type refCache struct {
	cfg      Config
	sets     int
	setShift uint // log2(sets): a line index's tag is line >> setShift
	ways     int
	policy   Policy

	tags       []uint64
	valid      []bool
	dirty      []bool
	pinned     []bool
	prefetched []bool
	atoms      []core.AtomID
	fill       []mem.Result

	pinnedInSet []int
	pinCapWays  int

	next     Lower
	classify Classifier
	observer Observer
	probe    func(Event)

	stats Stats
}

func newRefCache(cfg Config, next Lower) (*refCache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive", cfg.Name)
	}
	lines := cfg.SizeBytes / mem.LineBytes
	if lines == 0 || lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d-byte lines",
			cfg.Name, cfg.SizeBytes, cfg.Ways, mem.LineBytes)
	}
	sets := int(lines) / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", cfg.Name, sets)
	}
	var pol Policy
	switch cfg.Policy {
	case "", "lru":
		pol = newRefLRUPolicy(sets, cfg.Ways)
	case "srrip":
		pol = newRefRRIP("SRRIP", sets, cfg.Ways, 0)
	case "brrip":
		pol = newRefRRIP("BRRIP", sets, cfg.Ways, 1)
	case "drrip":
		pol = newRefDRRIP(sets, cfg.Ways)
	default:
		return nil, fmt.Errorf("cache %s: unknown policy %q", cfg.Name, cfg.Policy)
	}
	frac := cfg.PinCapFraction
	if frac == 0 {
		frac = DefaultPinCapFraction
	}
	capWays := int(frac * float64(cfg.Ways))
	if capWays < 1 {
		capWays = 1
	}
	n := sets * cfg.Ways
	return &refCache{
		cfg: cfg, sets: sets, setShift: uint(bits.TrailingZeros(uint(sets))),
		ways: cfg.Ways, policy: pol,
		tags: make([]uint64, n), valid: make([]bool, n),
		dirty: make([]bool, n), pinned: make([]bool, n),
		prefetched: make([]bool, n),
		atoms:      make([]core.AtomID, n), fill: make([]mem.Result, n),
		pinnedInSet: make([]int, sets), pinCapWays: capWays,
		next: next,
	}, nil
}

// Stats returns a snapshot of the counters.
func (c *refCache) Stats() Stats { return c.stats }

// SetClassifier installs the XMem insertion classifier.
func (c *refCache) SetClassifier(f Classifier) { c.classify = f }

// SetObserver installs a demand-access observer (prefetcher training).
func (c *refCache) SetObserver(f Observer) { c.observer = f }

// SetProbe installs the observation probe, which receives every Event. A
// nil probe costs one branch per demand access and eviction.
func (c *refCache) SetProbe(f func(Event)) { c.probe = f }

func (c *refCache) index(pa mem.Addr) (set int, tag uint64) {
	line := mem.LineIndex(pa)
	return int(line) & (c.sets - 1), line >> c.setShift
}

// lineAddr reconstructs the line address held at slot idx of set.
func (c *refCache) lineAddr(set, idx int) mem.Addr {
	return mem.Addr((c.tags[idx]<<c.setShift | uint64(set)) << mem.LineShift)
}

func (c *refCache) find(set int, tag uint64) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// Access implements Lower.
func (c *refCache) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	pa = mem.LineAddr(pa)
	set, tag := c.index(pa)
	way := c.find(set, tag)

	if kind == mem.Writeback {
		return c.accessWriteback(pa, set, way, at, pc)
	}

	lookupDone := at + c.cfg.Latency
	if way >= 0 {
		idx := set*c.ways + way
		c.recordHit(kind)
		demand := kind.IsDemand()
		consumedPrefetch := false
		if demand {
			if c.observer != nil {
				c.observer(pa, pc, at, false)
			}
			if c.prefetched[idx] {
				consumedPrefetch = true
				c.prefetched[idx] = false
				c.stats.PrefetchUseful++
			}
		}
		if kind != mem.Prefetch {
			c.policy.Hit(set, way)
		}
		if kind == mem.Write {
			c.dirty[idx] = true
		}
		// A line still in flight (e.g., an earlier prefetch) is a delayed hit.
		done, ok := c.fill[idx].Peek()
		delayed := !ok || done > lookupDone
		if demand {
			if delayed {
				c.stats.DelayedHits++
			}
			if c.probe != nil {
				ev := Event{PA: pa, Level: c.cfg.Name, Kind: kind, Delayed: delayed,
					Prefetched: consumedPrefetch, Pinned: c.pinned[idx], Resolved: ok,
					Atom: c.atoms[idx], At: at, Done: lookupDone}
				if delayed && ok {
					ev.Done = done
				}
				if consumedPrefetch && ok && done < at {
					ev.Lead = at - done
				}
				c.probe(ev)
			}
		}
		if delayed {
			return c.fill[idx].DeferredMax(lookupDone)
		}
		return mem.Done(lookupDone)
	}

	// Miss.
	c.recordMiss(kind)
	c.policy.Miss(set)
	demand := kind.IsDemand()
	if demand && c.observer != nil {
		c.observer(pa, pc, at, true)
	}
	fetchKind := mem.Read
	if kind == mem.Prefetch {
		fetchKind = mem.Prefetch
	}
	fill := c.next.Access(pa, fetchKind, lookupDone, pc)
	ins, pinDenied := c.install(pa, set, tag, kind, at, fill, pc)
	if demand && c.probe != nil {
		c.probe(Event{PA: pa, Level: c.cfg.Name, Kind: kind, Miss: true,
			Pinned: ins.Pin, PinDenied: pinDenied, LowPriority: ins.Pri == InsertLow,
			Atom: ins.Atom, At: at, Done: lookupDone})
	}
	return fill
}

func (c *refCache) accessWriteback(pa mem.Addr, set, way int, at uint64, pc mem.Addr) mem.Result {
	if way >= 0 {
		idx := set*c.ways + way
		c.dirty[idx] = true
		return mem.Done(at + c.cfg.Latency)
	}
	// Non-inclusive: a writeback missing here forwards to the next level.
	return c.next.Access(pa, mem.Writeback, at+c.cfg.Latency, pc)
}

func (c *refCache) recordHit(kind mem.AccessKind) {
	switch kind {
	case mem.Read:
		c.stats.Hits++
		c.stats.ReadHits++
	case mem.Write:
		c.stats.Hits++
		c.stats.WriteHits++
	case mem.Prefetch:
		c.stats.PrefetchHits++
	}
}

func (c *refCache) recordMiss(kind mem.AccessKind) {
	switch kind {
	case mem.Read:
		c.stats.Misses++
		c.stats.ReadMisses++
	case mem.Write:
		c.stats.Misses++
		c.stats.WriteMisses++
	case mem.Prefetch:
		c.stats.PrefetchMisses++
	}
}

// install fills pa into the cache, evicting a victim if needed. It returns
// the applied insertion decision and whether a requested pin was denied by
// the set cap (the miss Event reports both).
func (c *refCache) install(pa mem.Addr, set int, tag uint64, kind mem.AccessKind, at uint64, fill mem.Result, pc mem.Addr) (Insertion, bool) {
	ins := Insertion{Pri: InsertDefault, Atom: core.InvalidAtom}
	if c.classify != nil {
		ins = c.classify(pa, kind)
	}
	pinDenied := false
	if ins.Pin {
		if c.pinnedInSet[set] >= c.pinCapWays {
			// §5.2(3): beyond the cap, insert with the default policy.
			ins.Pin = false
			ins.Pri = InsertDefault
			pinDenied = true
			c.stats.PinDowngrades++
		} else {
			ins.Pri = InsertHigh
		}
	}

	way := c.chooseVictim(set)
	idx := set*c.ways + way
	if c.valid[idx] {
		c.stats.Evictions++
		wasPinned := c.pinned[idx]
		if wasPinned {
			c.stats.PinEvictions++
			c.pinnedInSet[set]--
		}
		if c.probe != nil {
			c.probe(Event{PA: c.lineAddr(set, idx), Level: c.cfg.Name, Kind: kind,
				Evicted: true, Pinned: wasPinned, Atom: c.atoms[idx], At: at})
		}
		if c.dirty[idx] {
			c.stats.Writebacks++
			victimPA := c.lineAddr(set, idx)
			// The victim leaves when the fill arrives; if the fill time
			// is still pending, approximate with the access time (writes
			// are fire-and-forget and scheduled lazily anyway).
			wbAt := at
			if done, ok := fill.Peek(); ok {
				wbAt = done
			}
			c.next.Access(victimPA, mem.Writeback, wbAt, pc)
		}
	}

	c.tags[idx] = tag
	c.valid[idx] = true
	c.dirty[idx] = kind == mem.Write
	c.pinned[idx] = ins.Pin
	c.prefetched[idx] = kind == mem.Prefetch
	c.atoms[idx] = ins.Atom
	c.fill[idx] = fill
	if ins.Pin {
		c.pinnedInSet[set]++
		c.stats.PinInserts++
	}
	if kind == mem.Prefetch {
		c.stats.PrefetchFills++
	}
	c.policy.Insert(set, way, ins.Pri)
	return ins, pinDenied
}

// chooseVictim prefers invalid ways, then unpinned lines; pinned lines are
// victims of last resort. The set's pinned bits are the policy's skip mask,
// so choosing a victim allocates nothing.
func (c *refCache) chooseVictim(set int) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			return w
		}
	}
	if c.pinnedInSet[set] < c.ways { // an unpinned way exists
		return c.policy.Victim(set, c.pinned[base:base+c.ways])
	}
	return c.policy.Victim(set, nil)
}

// AgePinned removes the pin from every line whose atom fails keep, and ages
// it so the default replacement policy can evict it (§5.2(3): the cache ages
// high-priority lines only when the list of active atoms changes).
func (c *refCache) AgePinned(keep func(core.AtomID) bool) {
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			idx := base + w
			if !c.valid[idx] || !c.pinned[idx] {
				continue
			}
			if keep != nil && keep(c.atoms[idx]) {
				continue
			}
			c.pinned[idx] = false
			c.pinnedInSet[set]--
			c.policy.Age(set, w)
		}
	}
}

// Contains reports whether pa is resident (testing/introspection). Unlike
// Access, it never touches replacement or stats state.
func (c *refCache) Contains(pa mem.Addr) bool {
	set, tag := c.index(mem.LineAddr(pa))
	return c.find(set, tag) >= 0
}

// PinnedLines returns the total number of pinned resident lines.
func (c *refCache) PinnedLines() int {
	n := 0
	for _, p := range c.pinnedInSet {
		n += p
	}
	return n
}

// refLRUPolicy is the LRU policy that tested the skip mask on every way.
type refLRUPolicy struct {
	ways  int
	stamp []uint64
	clock uint64
}

func newRefLRUPolicy(sets, ways int) *refLRUPolicy {
	return &refLRUPolicy{ways: ways, stamp: make([]uint64, sets*ways)}
}

func (p *refLRUPolicy) Name() string { return "LRU" }

func (p *refLRUPolicy) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *refLRUPolicy) Hit(set, way int) { p.touch(set, way) }

func (p *refLRUPolicy) Insert(set, way int, pri InsertPriority) {
	switch pri {
	case InsertLow:
		// Insert at LRU position: first eviction candidate.
		p.stamp[set*p.ways+way] = 0
	default:
		p.touch(set, way)
	}
}

func (p *refLRUPolicy) Miss(int) {}

func (p *refLRUPolicy) Victim(set int, skip []bool) int {
	best, bestStamp := -1, uint64(0)
	for w := 0; w < p.ways; w++ {
		if skip != nil && skip[w] {
			continue
		}
		if s := p.stamp[set*p.ways+w]; best == -1 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

func (p *refLRUPolicy) Age(set, way int) { p.stamp[set*p.ways+way] = 0 }

// refRRIP is the RRIP family that aged a set one step at a time and
// rescanned it after each step.
type refRRIP struct {
	name string
	ways int
	rrpv []uint8
	// mode selects the insertion for InsertDefault in a given set:
	// 0 = SRRIP, 1 = BRRIP, 2 = duel (consult PSEL + leader sets).
	mode int
	// set dueling state (DRRIP).
	leader  []int8 // per set: +1 SRRIP leader, -1 BRRIP leader, 0 follower
	psel    int
	pselMax int
	// deterministic counter driving BRRIP's 1/32 long insertions.
	brripCtr uint32
}

func newRefDRRIP(sets, ways int) *refRRIP {
	p := newRefRRIP("DRRIP", sets, ways, 2)
	p.leader = make([]int8, sets)
	// Dedicate up to 32 leader sets per policy, spread through the index
	// space deterministically.
	leaders := 32
	if leaders > sets/2 {
		leaders = sets / 2
	}
	if leaders == 0 {
		leaders = 1
	}
	stride := sets / (2 * leaders)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < leaders; i++ {
		p.leader[(2*i)*stride%sets] = +1   // SRRIP leader
		p.leader[(2*i+1)*stride%sets] = -1 // BRRIP leader
	}
	p.pselMax = 1024
	p.psel = p.pselMax / 2
	return p
}

func newRefRRIP(name string, sets, ways, mode int) *refRRIP {
	rr := &refRRIP{name: name, ways: ways, rrpv: make([]uint8, sets*ways), mode: mode}
	for i := range rr.rrpv {
		rr.rrpv[i] = rripMax
	}
	return rr
}

func (p *refRRIP) Name() string { return p.name }

func (p *refRRIP) Hit(set, way int) { p.rrpv[set*p.ways+way] = 0 }

func (p *refRRIP) useBRRIP(set int) bool {
	switch p.mode {
	case 0:
		return false
	case 1:
		return true
	default:
		switch p.leader[set] {
		case +1:
			return false
		case -1:
			return true
		default:
			// PSEL high means SRRIP is missing more; follow BRRIP.
			return p.psel > p.pselMax/2
		}
	}
}

func (p *refRRIP) Insert(set, way int, pri InsertPriority) {
	idx := set*p.ways + way
	switch pri {
	case InsertHigh:
		p.rrpv[idx] = 0
	case InsertLow:
		p.rrpv[idx] = rripMax
	default:
		if p.useBRRIP(set) {
			p.brripCtr++
			if p.brripCtr%brripEpsilon == 0 {
				p.rrpv[idx] = rripLong
			} else {
				p.rrpv[idx] = rripMax
			}
		} else {
			p.rrpv[idx] = rripLong
		}
	}
}

func (p *refRRIP) Miss(set int) {
	if p.mode != 2 {
		return
	}
	switch p.leader[set] {
	case +1: // SRRIP leader missed: SRRIP looks worse
		if p.psel < p.pselMax {
			p.psel++
		}
	case -1: // BRRIP leader missed
		if p.psel > 0 {
			p.psel--
		}
	}
}

func (p *refRRIP) Victim(set int, skip []bool) int {
	for {
		for w := 0; w < p.ways; w++ {
			if (skip == nil || !skip[w]) && p.rrpv[set*p.ways+w] == rripMax {
				return w
			}
		}
		// Age every line in the set and rescan.
		aged := false
		for w := 0; w < p.ways; w++ {
			if p.rrpv[set*p.ways+w] < rripMax {
				p.rrpv[set*p.ways+w]++
				aged = true
			}
		}
		if !aged {
			// All lines already distant but ineligible ones block them:
			// pick the first eligible way.
			for w := 0; w < p.ways; w++ {
				if skip == nil || !skip[w] {
					return w
				}
			}
			return 0
		}
	}
}

func (p *refRRIP) Age(set, way int) { p.rrpv[set*p.ways+way] = rripMax }

// fakeLower is the level below a cache under test. It logs every request
// and answers from an rng seeded identically on both sides: mem.Done, or a
// pending future that the stream resolves later in any order (or that a
// Wait forces).
type fakeLower struct {
	rng     *rand.Rand
	reqs    []lowerReq
	pending []*fakeFill
}

type lowerReq struct {
	pa   mem.Addr
	kind mem.AccessKind
	at   uint64
}

type fakeFill struct {
	f    *mem.Future
	done uint64
}

func (l *fakeLower) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	l.reqs = append(l.reqs, lowerReq{pa, kind, at})
	done := at + 1 + uint64(l.rng.Intn(300))
	if kind == mem.Writeback || l.rng.Intn(3) == 0 {
		return mem.Done(done)
	}
	p := &fakeFill{done: done}
	p.f = mem.NewFuture(func() { p.f.Resolve(p.done) })
	l.pending = append(l.pending, p)
	return mem.Pending(p.f)
}

// resolve completes the i-th outstanding fill (mod their number).
func (l *fakeLower) resolve(i int) {
	if len(l.pending) == 0 {
		return
	}
	i %= len(l.pending)
	if p := l.pending[i]; !p.f.Resolved() {
		p.f.Resolve(p.done)
	}
	l.pending = append(l.pending[:i], l.pending[i+1:]...)
}

// trainCall is one Observer (training) callback.
type trainCall struct {
	pa, pc mem.Addr
	at     uint64
	miss   bool
}

// cacheSide is one cache under test with everything it is compared on.
type cacheSide struct {
	lower   *fakeLower
	results []mem.Result
	events  []Event
	train   []trainCall
}

func newCacheSide(seed int64) *cacheSide {
	return &cacheSide{lower: &fakeLower{rng: rand.New(rand.NewSource(seed))}}
}

func (s *cacheSide) probe(ev Event) { s.events = append(s.events, ev) }

func (s *cacheSide) observe(pa, pc mem.Addr, at uint64, miss bool) {
	s.train = append(s.train, trainCall{pa, pc, at, miss})
}

// classifyByLine pins two lines in five and inserts one in five at low
// priority, tagging each with one of four atoms.
func classifyByLine(pa mem.Addr, kind mem.AccessKind) Insertion {
	line := mem.LineIndex(pa)
	ins := Insertion{Pri: InsertDefault, Atom: core.AtomID(line % 4)}
	switch line % 5 {
	case 0, 3:
		ins.Pin = true
	case 1:
		ins.Pri = InsertLow
	}
	return ins
}

// keepEvenAtoms is the AgePinned predicate: odd atoms lose their pins.
func keepEvenAtoms(a core.AtomID) bool { return a%2 == 0 }

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

var policyNames = [...]string{"lru", "srrip", "brrip", "drrip"}

// decodeCacheConfig draws any policy, 1-16 ways, 1-8 sets, a pin cap of
// 50%, 75% or 100%, and a line space about twice the capacity.
func decodeCacheConfig(s *byteStream) (cfg Config, space lineSpace, classify bool) {
	b0, b1, b2 := s.next(), s.next(), s.next()
	sets := 1 << (b1 & 3)
	cfg = Config{
		Name:           "L",
		Ways:           1 + int(b0/4%16),
		Policy:         policyNames[b0%4],
		Latency:        1 + uint64(b1>>2&7),
		PinCapFraction: [...]float64{0, 0.5, 1, 0}[b2&3],
	}
	cfg.SizeBytes = uint64(sets*cfg.Ways) * mem.LineBytes
	space = lineSpace{lines: 2*sets*cfg.Ways + 1 + int(b2>>2&7), sets: sets, keep: uint(b1 >> 5)}
	return cfg, space, b2&0x20 == 0
}

// lineSpace spreads the stream's line numbers over addresses, as the DRAM
// differential spreads its own. Number i keeps its set, i mod sets; its tag
// keeps the low keep bits of i/sets and moves the rest above bit 7, so two
// tags that agree in those bits share their low seven bits, and with them
// their fingerprint. keep 0 gives every tag one fingerprint; keep 6 or 7
// gives none a shared one.
type lineSpace struct {
	lines, sets int
	keep        uint
}

func (l lineSpace) addr(i int) mem.Addr {
	n := uint64(i / l.sets)
	tag := n&(1<<l.keep-1) | n>>l.keep<<7
	return mem.Addr((tag*uint64(l.sets) + uint64(i%l.sets)) << mem.LineShift)
}

// cacheCoverage counts the paths one stream exercised: fpCollisions counts
// resident lines whose fingerprint matched a lookup's but whose tag did
// not, aged[k] RRIP victim choices that aged their set by k steps, and
// skipVictims victim choices made under a pinned-bit skip mask.
type cacheCoverage struct {
	pinEvictions, delayedHits, pinDowngrades, collapses uint64
	fpCollisions, skipVictims                           uint64
	aged                                                [rripMax + 1]uint64
}

// victimCounter wraps the policy of the Cache under test and records in
// cov what each victim choice did.
type victimCounter struct {
	Policy
	cov *cacheCoverage
}

func (v victimCounter) Victim(set int, skip []bool) int {
	if skip != nil {
		v.cov.skipVictims++
	}
	rr, ok := v.Policy.(*rrip)
	if !ok {
		return v.Policy.Victim(set, skip)
	}
	var before [16]uint8
	copy(before[:], rr.rrpv[set*rr.ways:(set+1)*rr.ways])
	w := v.Policy.Victim(set, skip)
	v.cov.aged[rripMax-before[w]]++
	return w
}

// fpCollisions counts the resident lines of pa's set whose fingerprint
// equals pa's while their tag differs.
func fpCollisions(c *Cache, pa mem.Addr) uint64 {
	set, tag := c.index(pa)
	base := set * c.ways
	n := uint64(0)
	for w := 0; w < c.used[set]; w++ {
		if c.fps[set*c.fpWays+w] == fingerprint(tag) && c.tags[base+w] != tag {
			n++
		}
	}
	return n
}

// runCacheDiff decodes data into a config and an op stream, runs it on the
// fill-counted Cache and the reference, and fails t at the first
// difference.
func runCacheDiff(t testing.TB, data []byte) cacheCoverage {
	s := &byteStream{b: data}
	cfg, space, classify := decodeCacheConfig(s)
	seed := int64(s.next())
	g, r := newCacheSide(seed), newCacheSide(seed)
	got, err := New(cfg, g.lower)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	var cov cacheCoverage
	got.policy = victimCounter{got.policy, &cov}
	ref, err := newRefCache(cfg, r.lower)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	got.SetProbe(g.probe)
	ref.SetProbe(r.probe)
	got.SetObserver(g.observe)
	ref.SetObserver(r.observe)
	if classify {
		got.SetClassifier(classifyByLine)
		ref.SetClassifier(classifyByLine)
	}

	var now uint64
	for op := 0; s.more() && op < 300; op++ {
		code := s.next()
		switch code % 10 {
		case 0, 1, 2, 3, 4, 5, 6:
			kind := [...]mem.AccessKind{mem.Read, mem.Read, mem.Read, mem.Write, mem.Write, mem.Writeback, mem.Prefetch}[code%10]
			pa := space.addr(int(s.next()) % space.lines)
			now += uint64(s.next() & 0x3f)
			cov.fpCollisions += fpCollisions(got, pa)
			// A hit on a resolved fill collapses the slot to mem.Done; a
			// hit on a pending one leaves it alone.
			set, tag := got.index(pa)
			way := got.find(set, tag)
			hit := way >= 0 && kind != mem.Writeback
			slot := set*got.ways + way
			var before mem.Result
			if hit {
				before = got.fill[slot]
			}
			resolved, ok := before.Peek()
			g.results = append(g.results, got.Access(pa, kind, now, mem.Addr(code)))
			r.results = append(r.results, ref.Access(pa, kind, now, mem.Addr(code)))
			if hit {
				switch after := got.fill[slot]; {
				case ok && after != mem.Done(resolved):
					t.Fatalf("%+v op %d: hit on a fill resolved at %d left slot %+v", cfg, op, resolved, after)
				case !ok && after != before:
					t.Fatalf("%+v op %d: hit on a pending fill rewrote its slot", cfg, op)
				case after != before:
					cov.collapses++
				}
			}
		case 7:
			i := int(s.next())
			g.lower.resolve(i)
			r.lower.resolve(i)
		case 8:
			if len(g.results) > 0 {
				i := int(s.next()) % len(g.results)
				g.results[i].Wait()
				r.results[i].Wait()
			}
		default:
			got.AgePinned(keepEvenAtoms)
			ref.AgePinned(keepEvenAtoms)
		}
		if op%32 == 31 {
			got.AgePinned(keepEvenAtoms)
			ref.AgePinned(keepEvenAtoms)
		}
		compareCaches(t, cfg, op, space, got, ref, g, r)
	}
	st := got.Stats()
	cov.pinEvictions, cov.delayedHits, cov.pinDowngrades = st.PinEvictions, st.DelayedHits, st.PinDowngrades
	return cov
}

func compareCaches(t testing.TB, cfg Config, op int, space lineSpace, got *Cache, ref *refCache, g, r *cacheSide) {
	t.Helper()
	if gs, rs := got.Stats(), ref.Stats(); gs != rs {
		t.Fatalf("%+v op %d: stats = %+v, reference %+v", cfg, op, gs, rs)
	}
	for i := range r.results {
		gc, gok := g.results[i].Peek()
		rc, rok := r.results[i].Peek()
		if gc != rc || gok != rok {
			t.Fatalf("%+v op %d: result %d = (%d, %v), reference (%d, %v)", cfg, op, i, gc, gok, rc, rok)
		}
	}
	if i, ok := equalSeq(g.events, r.events); !ok {
		t.Fatalf("%+v op %d: probe events diverge at %d of %d/%d", cfg, op, i, len(g.events), len(r.events))
	}
	if i, ok := equalSeq(g.train, r.train); !ok {
		t.Fatalf("%+v op %d: training calls diverge at %d of %d/%d", cfg, op, i, len(g.train), len(r.train))
	}
	if i, ok := equalSeq(g.lower.reqs, r.lower.reqs); !ok {
		t.Fatalf("%+v op %d: lower-level requests diverge at %d of %d/%d", cfg, op, i, len(g.lower.reqs), len(r.lower.reqs))
	}
	for l := 0; l < space.lines; l++ {
		pa := space.addr(l)
		if gc, rc := got.Contains(pa), ref.Contains(pa); gc != rc {
			t.Fatalf("%+v op %d: Contains(%#x) = %v, reference %v", cfg, op, pa, gc, rc)
		}
	}
	if gp, rp := got.PinnedLines(), ref.PinnedLines(); gp != rp {
		t.Fatalf("%+v op %d: %d pinned lines, reference %d", cfg, op, gp, rp)
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

// cacheSeeds are the corpus plain go test runs: every policy with every
// way count from 1 to 16 appears.
func cacheSeeds() [][]byte {
	rng := rand.New(rand.NewSource(15))
	seeds := make([][]byte, 256)
	for i := range seeds {
		seeds[i] = make([]byte, 64+rng.Intn(700))
		rng.Read(seeds[i])
		seeds[i][0] = byte(i % 64)
	}
	return seeds
}

// FuzzCacheMatchesReference: the fill-counted cache behaves exactly like
// the valid-array reference on any stream of reads, writes, writebacks and
// prefetches, with fills that resolve in any order, pinned and low-priority
// insertions, and periodic pin aging.
func FuzzCacheMatchesReference(f *testing.F) {
	for _, s := range cacheSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runCacheDiff(t, data) })
}

// TestCacheSeedsCoverPinsAndDelays: the seed corpus evicts pinned lines,
// downgrades pins at the cap, takes delayed hits, collapses resolved fills,
// looks up tags whose fingerprints collide, ages RRIP sets by 1, 2 and 3
// steps and chooses victims under a skip mask, under every policy and way
// count.
func TestCacheSeedsCoverPinsAndDelays(t *testing.T) {
	var total cacheCoverage
	configs := map[string]bool{}
	for _, s := range cacheSeeds() {
		c := runCacheDiff(t, s)
		total.pinEvictions += c.pinEvictions
		total.delayedHits += c.delayedHits
		total.pinDowngrades += c.pinDowngrades
		total.collapses += c.collapses
		total.fpCollisions += c.fpCollisions
		total.skipVictims += c.skipVictims
		for k, n := range c.aged {
			total.aged[k] += n
		}
		cfg, _, _ := decodeCacheConfig(&byteStream{b: s})
		configs[fmt.Sprintf("%s/%d", cfg.Policy, cfg.Ways)] = true
	}
	t.Logf("%d seeds, %d configurations: %+v", len(cacheSeeds()), len(configs), total)
	if total.pinEvictions == 0 || total.delayedHits == 0 || total.pinDowngrades == 0 || total.collapses == 0 ||
		total.fpCollisions == 0 || total.skipVictims == 0 || total.aged[1] == 0 || total.aged[2] == 0 || total.aged[3] == 0 {
		t.Fatalf("seed corpus misses a path: %+v", total)
	}
	if want := len(policyNames) * 16; len(configs) != want {
		t.Fatalf("seed corpus covers %d of %d policy/way combinations", len(configs), want)
	}
}

// TestVictimMatchesFrozenPolicies compares the one-pass victim choices with
// the frozen rescanning ones on set 1 of a two-set, 4-way policy: every
// RRPV vector, and every stamp vector over 0-3 (ties, and the 0 stamps
// InsertLow and Age leave), under every non-empty eligible mask. The full
// mask is passed both as a skip slice of falses and as nil. RRIP must also
// leave every RRPV as the reference does.
func TestVictimMatchesFrozenPolicies(t *testing.T) {
	const ways = 4
	for vec := 0; vec < 1<<(2*ways); vec++ {
		var vals [2 * ways]uint8
		for w := 0; w < ways; w++ {
			vals[ways+w] = uint8(vec >> (2 * w) & 3)
		}
		for mask := 1; mask < 1<<ways; mask++ {
			skip := make([]bool, ways)
			for w := range skip {
				skip[w] = mask>>w&1 == 0
			}
			skips := [][]bool{skip}
			if mask == 1<<ways-1 {
				skips = append(skips, nil)
			}
			for _, sk := range skips {
				got, ref := newRRIP("SRRIP", 2, ways, 0), newRefRRIP("SRRIP", 2, ways, 0)
				copy(got.rrpv, vals[:])
				copy(ref.rrpv, vals[:])
				if gw, rw := got.Victim(1, sk), ref.Victim(1, sk); gw != rw || string(got.rrpv) != string(ref.rrpv) {
					t.Fatalf("RRIP %v skip %v: victim %d, RRPVs %v; reference %d, %v", vals[ways:], sk, gw, got.rrpv[ways:], rw, ref.rrpv[ways:])
				}
				gl, rl := NewLRU(2, ways).(*lru), newRefLRUPolicy(2, ways)
				for i, v := range vals {
					gl.stamp[i], rl.stamp[i] = uint64(v), uint64(v)
				}
				if gw, rw := gl.Victim(1, sk), rl.Victim(1, sk); gw != rw {
					t.Fatalf("LRU stamps %v skip %v: victim %d, reference %d", vals[ways:], sk, gw, rw)
				}
			}
		}
	}
}
