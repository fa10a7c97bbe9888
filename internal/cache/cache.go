package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// Lower is anything a cache can forward requests to: the next cache level
// or the memory controller.
type Lower interface {
	// Access processes a line request arriving at CPU cycle `at` and
	// returns the cycle at which the data is available — possibly as a
	// pending Future when the completion depends on memory-controller
	// scheduling (writebacks return their acceptance time).
	Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result
}

// Insertion is the XMem cache controller's classification of a fill,
// derived from the active atom (if any) behind the address.
type Insertion struct {
	// Pri is the insertion priority handed to the replacement policy.
	Pri InsertPriority
	// Atom is the active atom behind the line (InvalidAtom if none).
	Atom core.AtomID
	// Pin requests that the line be pinned (§5.2(3)).
	Pin bool
}

// Classifier decides the insertion treatment of a line at fill time.
// A nil classifier means every fill is InsertDefault (the baseline system).
type Classifier func(pa mem.Addr, kind mem.AccessKind) Insertion

// Observer is notified of every demand access for prefetcher training.
// It is kept apart from the probe because training changes timing (the
// prefetchers it feeds issue requests) and observation must not.
type Observer func(pa mem.Addr, pc mem.Addr, at uint64, miss bool)

// Event is one observable outcome at one cache level, delivered by value to
// the probe: once per demand hit, delayed hit or miss, and once per eviction
// of a valid line. Miss events carry the insertion decision the classifier
// made for the fill (Pin/PinDenied/Low), hit events whether the line was
// pinned, prefetched, or still in flight. An event names neither its level
// nor an atom: each probe is installed on one cache, and a sink resolves
// the line's atom from PA.
type Event struct {
	// PA is the line address.
	PA mem.Addr
	// Miss is true when the access missed and filled from below.
	Miss bool
	// Delayed marks a hit on a line whose fill is still in flight.
	Delayed bool
	// Prefetched marks a hit that consumed a prefetched line (first use).
	Prefetched bool
	// Pinned marks a hit on a pinned line, a miss whose fill was inserted
	// pinned, or the eviction of a pinned line.
	Pinned bool
	// PinDenied marks a miss whose pin request the set cap downgraded.
	PinDenied bool
	// LowPriority marks a miss inserted at low priority (streaming bypass).
	LowPriority bool
	// Evicted marks an eviction: PA and Pinned describe the victim.
	Evicted bool
	// Resolved reports that Done is the access's completion: a hit whose
	// data time is known. It is false for misses, evictions and delayed
	// hits whose fill is still pending.
	Resolved bool
	// Lead is, on a Prefetched hit, how many cycles before the access the
	// prefetched fill completed (0 when the fill was late or unresolved).
	Lead uint64
	// At is the arrival cycle at this level; Done the cycle the level's
	// answer was available (for misses and unresolved delayed hits, the
	// cycle the request left for the next level).
	At   uint64
	Done uint64
}

// Stats counts cache activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	// DelayedHits are demand hits on lines still in flight (typically
	// filled by an earlier prefetch that has not completed).
	DelayedHits uint64
	// PrefetchHits/Misses count prefetch probes.
	PrefetchHits   uint64
	PrefetchMisses uint64
	// PrefetchFills counts lines installed by prefetches.
	PrefetchFills uint64
	// PrefetchUseful counts prefetched lines that later served a demand
	// access (each line counts once).
	PrefetchUseful uint64
	// Writebacks counts dirty evictions sent down.
	Writebacks uint64
	// Evictions counts all evictions of valid lines.
	Evictions uint64
	// PinInserts counts lines inserted pinned; PinDowngrades counts pin
	// requests denied by the 75% cap.
	PinInserts    uint64
	PinDowngrades uint64
	// PinEvictions counts pinned lines evicted (only possible when a set
	// is saturated with pinned lines).
	PinEvictions uint64
}

// DemandAccesses returns the number of demand (read+write) accesses.
func (s Stats) DemandAccesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// DemandMissRate returns misses per demand access.
func (s Stats) DemandMissRate() float64 {
	d := s.DemandAccesses()
	if d == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(d)
}

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports ("L1D", "L2", "L3").
	Name string
	// SizeBytes is the total capacity; it must be a power-of-two multiple
	// of Ways*LineBytes.
	SizeBytes uint64
	// Ways is the associativity.
	Ways int
	// Latency is the lookup latency in CPU cycles.
	Latency uint64
	// Policy names the replacement policy: "lru", "srrip", "brrip",
	// "drrip".
	Policy string
	// PinCapFraction bounds the fraction of ways in a set that may hold
	// pinned lines, and of the capacity the pinned working set may fill
	// (PinBudgetBytes); 0 selects the paper's 75% (§5.2).
	PinCapFraction float64
}

// defaultPinCapFraction is the §5.2 pinning limit: the cache keeps 25% of
// each set available for other data.
const defaultPinCapFraction = 0.75

// Cache is one level of the simulated hierarchy.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint // log2(sets): a line index's tag is line >> setShift
	ways     int
	policy   Policy

	tags []uint64
	// fps holds one fingerprint byte per way, fpWays bytes per set (ways
	// rounded up to whole 8-byte words): fingerprint(tag) for a valid line,
	// 0 for a free way or padding. find compares a word of them at a time
	// and reads a full tag only where its fingerprint matches.
	fps    []byte
	fpWays int
	// used counts each set's valid ways. Lines are never invalidated and
	// chooseVictim fills the first free way, so ways [0, used[set]) are
	// exactly the set's valid lines.
	used       []int
	dirty      []bool
	pinned     []bool
	prefetched []bool
	atoms      []core.AtomID
	fill       []mem.Result

	pinnedInSet []int
	pinCapWays  int
	pinBudget   uint64

	next     Lower
	classify Classifier
	observer Observer
	probe    func(Event)

	stats Stats
}

// Validate checks the cache's shape: positive ways, and a size that is a
// whole number of lines holding a power-of-two number of sets of Ways lines.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive", c.Name)
	}
	lines := c.SizeBytes / mem.LineBytes
	if lines == 0 || c.SizeBytes%mem.LineBytes != 0 || lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, mem.LineBytes)
	}
	if sets := lines / uint64(c.Ways); sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	return nil
}

// New builds a cache from cfg, forwarding misses to next.
func New(cfg Config, next Lower) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := int(cfg.SizeBytes/mem.LineBytes) / cfg.Ways
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
		frac = defaultPinCapFraction
	}
	capWays := int(frac * float64(cfg.Ways))
	if capWays < 1 {
		capWays = 1
	}
	n := sets * cfg.Ways
	fpWays := (cfg.Ways + 7) &^ 7
	return &Cache{
		cfg: cfg, sets: sets, setShift: uint(bits.TrailingZeros(uint(sets))),
		ways: cfg.Ways, policy: pol,
		tags: make([]uint64, n), fps: make([]byte, sets*fpWays), fpWays: fpWays,
		used: make([]int, sets), dirty: make([]bool, n), pinned: make([]bool, n),
		prefetched: make([]bool, n),
		atoms:      make([]core.AtomID, n), fill: make([]mem.Result, n),
		pinnedInSet: make([]int, sets), pinCapWays: capWays,
		pinBudget: uint64(float64(cfg.SizeBytes) * frac),
		next:      next,
	}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, next Lower) *Cache {
	c, err := New(cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// PinBudgetBytes returns the §5.2 pinning budget: the bytes of atom
// working set the pin controller may select for pinning, the pin-cap
// fraction of the capacity.
func (c *Cache) PinBudgetBytes() uint64 { return c.pinBudget }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetClassifier installs the XMem insertion classifier.
func (c *Cache) SetClassifier(f Classifier) { c.classify = f }

// SetObserver installs a demand-access observer (prefetcher training).
func (c *Cache) SetObserver(f Observer) { c.observer = f }

// SetProbe installs the observation probe, which receives every Event. A
// nil probe costs one branch per demand access and eviction.
func (c *Cache) SetProbe(f func(Event)) { c.probe = f }

func (c *Cache) index(pa mem.Addr) (set int, tag uint64) {
	line := mem.LineIndex(pa)
	return int(line) & (c.sets - 1), line >> c.setShift
}

// lineAddr reconstructs the line address held at slot idx of set.
func (c *Cache) lineAddr(set, idx int) mem.Addr {
	return mem.Addr((c.tags[idx]<<c.setShift | uint64(set)) << mem.LineShift)
}

// fingerprint is the byte find compares before a tag: the tag's low seven
// bits with the top bit set, so no valid line's fingerprint is 0.
func fingerprint(tag uint64) byte { return 0x80 | byte(tag&0x7f) }

const (
	lowBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
)

func (c *Cache) find(set int, tag uint64) int {
	want := uint64(fingerprint(tag)) * lowBytes
	base := set * c.ways
	fps := c.fps[set*c.fpWays : (set+1)*c.fpWays]
	for off := 0; off < len(fps); off += 8 {
		// Each zero byte of x is a way whose fingerprint matches. The
		// subtraction's borrow can also flag a byte of 0x01 above a zero
		// byte, so the full tag confirms every flag; a free way or padding
		// gives a byte of 0x80 or more and is never flagged.
		x := binary.LittleEndian.Uint64(fps[off:]) ^ want
		for m := (x - lowBytes) &^ x & highBytes; m != 0; m &= m - 1 {
			if w := off + bits.TrailingZeros64(m)>>3; c.tags[base+w] == tag {
				return w
			}
		}
	}
	return -1
}

// Access implements Lower.
func (c *Cache) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
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
		if ok {
			// Collapse a resolved fill so later hits skip the future and
			// the lower level's Future can be collected.
			c.fill[idx] = mem.Done(done)
		}
		delayed := !ok || done > lookupDone
		if demand {
			if delayed {
				c.stats.DelayedHits++
			}
			if c.probe != nil {
				ev := Event{PA: pa, Delayed: delayed, Prefetched: consumedPrefetch,
					Pinned: c.pinned[idx], Resolved: ok, At: at, Done: lookupDone}
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
		c.probe(Event{PA: pa, Miss: true, Pinned: ins.Pin, PinDenied: pinDenied,
			LowPriority: ins.Pri == InsertLow, At: at, Done: lookupDone})
	}
	return fill
}

func (c *Cache) accessWriteback(pa mem.Addr, set, way int, at uint64, pc mem.Addr) mem.Result {
	if way >= 0 {
		idx := set*c.ways + way
		c.dirty[idx] = true
		return mem.Done(at + c.cfg.Latency)
	}
	// Non-inclusive: a writeback missing here forwards to the next level.
	return c.next.Access(pa, mem.Writeback, at+c.cfg.Latency, pc)
}

func (c *Cache) recordHit(kind mem.AccessKind) {
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

func (c *Cache) recordMiss(kind mem.AccessKind) {
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
func (c *Cache) install(pa mem.Addr, set int, tag uint64, kind mem.AccessKind, at uint64, fill mem.Result, pc mem.Addr) (Insertion, bool) {
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
	if way < c.used[set] {
		c.stats.Evictions++
		wasPinned := c.pinned[idx]
		if wasPinned {
			c.stats.PinEvictions++
			c.pinnedInSet[set]--
		}
		if c.probe != nil {
			c.probe(Event{PA: c.lineAddr(set, idx), Evicted: true, Pinned: wasPinned, At: at})
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
	} else {
		c.used[set]++
	}

	c.tags[idx] = tag
	c.fps[set*c.fpWays+way] = fingerprint(tag)
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

// chooseVictim prefers the first free way, then unpinned lines; pinned
// lines are victims of last resort. The set's pinned bits are the policy's
// skip mask, so choosing a victim allocates nothing. A set with no pinned
// line, or only pinned lines, passes no mask: every way is eligible.
func (c *Cache) chooseVictim(set int) int {
	if n := c.used[set]; n < c.ways {
		return n
	}
	var skip []bool
	if p := c.pinnedInSet[set]; p > 0 && p < c.ways {
		base := set * c.ways
		skip = c.pinned[base : base+c.ways]
	}
	return c.policy.Victim(set, skip)
}

// AgePinned removes the pin from every line whose atom fails keep, and ages
// it so the default replacement policy can evict it (§5.2(3): the cache ages
// high-priority lines only when the list of active atoms changes).
func (c *Cache) AgePinned(keep func(core.AtomID) bool) {
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for w := 0; w < c.used[set]; w++ {
			idx := base + w
			if !c.pinned[idx] {
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
//
//xmem:statsneutral
func (c *Cache) Contains(pa mem.Addr) bool {
	set, tag := c.index(mem.LineAddr(pa))
	return c.find(set, tag) >= 0
}

// PinnedLines returns the total number of pinned resident lines.
func (c *Cache) PinnedLines() int {
	n := 0
	for _, p := range c.pinnedInSet {
		n += p
	}
	return n
}
