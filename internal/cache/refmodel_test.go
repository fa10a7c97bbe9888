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
// array as the test-only reference refCache. FuzzCacheMatchesReference
// drives it and the fill-counted Cache through identical op streams over a
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
		pol = NewLRU(sets, cfg.Ways)
	case "srrip":
		pol = NewSRRIP(sets, cfg.Ways)
	case "brrip":
		pol = NewBRRIP(sets, cfg.Ways)
	case "drrip":
		pol = NewDRRIP(sets, cfg.Ways)
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
func decodeCacheConfig(s *byteStream) (cfg Config, lines int, classify bool) {
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
	return cfg, 2*sets*cfg.Ways + 1 + int(b2>>2&7), b2&0x20 == 0
}

// cacheCoverage counts the paths one stream exercised.
type cacheCoverage struct {
	pinEvictions, delayedHits, pinDowngrades, collapses uint64
}

// runCacheDiff decodes data into a config and an op stream, runs it on the
// fill-counted Cache and the reference, and fails t at the first
// difference.
func runCacheDiff(t testing.TB, data []byte) cacheCoverage {
	s := &byteStream{b: data}
	cfg, lines, classify := decodeCacheConfig(s)
	seed := int64(s.next())
	g, r := newCacheSide(seed), newCacheSide(seed)
	got, err := New(cfg, g.lower)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
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

	var collapses uint64
	var now uint64
	for op := 0; s.more() && op < 300; op++ {
		code := s.next()
		switch code % 10 {
		case 0, 1, 2, 3, 4, 5, 6:
			kind := [...]mem.AccessKind{mem.Read, mem.Read, mem.Read, mem.Write, mem.Write, mem.Writeback, mem.Prefetch}[code%10]
			pa := mem.Addr(int(s.next())%lines) << mem.LineShift
			now += uint64(s.next() & 0x3f)
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
					collapses++
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
		compareCaches(t, cfg, op, lines, got, ref, g, r)
	}
	st := got.Stats()
	return cacheCoverage{st.PinEvictions, st.DelayedHits, st.PinDowngrades, collapses}
}

func compareCaches(t testing.TB, cfg Config, op, lines int, got *Cache, ref *refCache, g, r *cacheSide) {
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
	for l := 0; l < lines; l++ {
		pa := mem.Addr(l) << mem.LineShift
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
// downgrades pins at the cap, takes delayed hits and collapses resolved
// fills, under every policy and way count.
func TestCacheSeedsCoverPinsAndDelays(t *testing.T) {
	var total cacheCoverage
	configs := map[string]bool{}
	for _, s := range cacheSeeds() {
		c := runCacheDiff(t, s)
		total.pinEvictions += c.pinEvictions
		total.delayedHits += c.delayedHits
		total.pinDowngrades += c.pinDowngrades
		total.collapses += c.collapses
		cfg, _, _ := decodeCacheConfig(&byteStream{b: s})
		configs[fmt.Sprintf("%s/%d", cfg.Policy, cfg.Ways)] = true
	}
	t.Logf("%d seeds, %d configurations: %+v", len(cacheSeeds()), len(configs), total)
	if total.pinEvictions == 0 || total.delayedHits == 0 || total.pinDowngrades == 0 || total.collapses == 0 {
		t.Fatalf("seed corpus misses a path: %+v", total)
	}
	if want := len(policyNames) * 16; len(configs) != want {
		t.Fatalf("seed corpus covers %d of %d policy/way combinations", len(configs), want)
	}
}
