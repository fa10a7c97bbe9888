// Package cache implements the set-associative caches of the simulated
// hierarchy, the LRU and DRRIP replacement policies of the paper's baseline
// (Table 3), and the XMem pinning extensions of §5.2: priority insertion for
// pinned atoms, a 75% pinning cap per set, and explicit aging of pinned
// lines when the active-atom set changes.
package cache

// InsertPriority is the abstract insertion class a replacement policy maps
// onto its own state.
type InsertPriority uint8

const (
	// InsertDefault uses the policy's normal insertion decision.
	InsertDefault InsertPriority = iota
	// InsertHigh marks data the controller wants retained (pinned atoms).
	InsertHigh
	// InsertLow marks data expected to have no reuse (streaming/bypass).
	InsertLow
)

// Policy is a per-cache replacement policy. Implementations keep their own
// per-line state indexed by (set*ways + way).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Hit updates state when the line at (set, way) is referenced.
	Hit(set, way int)
	// Insert initializes state for a fill at (set, way).
	Insert(set, way int, pri InsertPriority)
	// Miss notifies the policy of a miss in set (for set dueling).
	Miss(set int)
	// Victim picks the way to evict in set; every way is valid. A nil skip
	// makes every way eligible; otherwise way w may be chosen only when
	// skip[w] is false, and at least one way is always eligible.
	Victim(set int, skip []bool) int
	// Age demotes the line at (set, way) so the default policy will evict
	// it soon (used when pinned lines lose their pin, §5.2(3)).
	Age(set, way int)
}

// --- LRU ---

type lru struct {
	ways  int
	stamp []uint64
	clock uint64
}

// NewLRU returns a least-recently-used policy for a cache with the given
// geometry.
func NewLRU(sets, ways int) Policy {
	return &lru{ways: ways, stamp: make([]uint64, sets*ways)}
}

func (p *lru) Name() string { return "LRU" }

func (p *lru) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *lru) Hit(set, way int) { p.touch(set, way) }

func (p *lru) Insert(set, way int, pri InsertPriority) {
	switch pri {
	case InsertLow:
		// Insert at LRU position: first eviction candidate.
		p.stamp[set*p.ways+way] = 0
	default:
		p.touch(set, way)
	}
}

func (p *lru) Miss(int) {}

// Victim returns the first eligible way with the oldest stamp in one pass.
// The loop without a skip mask, the only one L1D runs, branches on nothing
// but the comparison the compiler turns into conditional moves.
func (p *lru) Victim(set int, skip []bool) int {
	stamps := p.stamp[set*p.ways : (set+1)*p.ways]
	if skip == nil {
		best, oldest := 0, stamps[0]
		for w, s := range stamps {
			if s < oldest {
				best, oldest = w, s
			}
		}
		return best
	}
	best, oldest := -1, uint64(0)
	for w, s := range stamps {
		if !skip[w] && (best < 0 || s < oldest) {
			best, oldest = w, s
		}
	}
	return best
}

func (p *lru) Age(set, way int) { p.stamp[set*p.ways+way] = 0 }

// --- RRIP family ---

const (
	rripBits     = 2
	rripMax      = 1<<rripBits - 1 // 3 = distant re-reference
	rripLong     = rripMax - 1     // 2 = long re-reference (SRRIP insert)
	brripEpsilon = 32              // BRRIP inserts long 1/32 of the time
)

// rrip is the shared machinery for SRRIP, BRRIP, and DRRIP.
type rrip struct {
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

// NewSRRIP returns a static re-reference interval prediction policy.
func NewSRRIP(sets, ways int) Policy {
	return newRRIP("SRRIP", sets, ways, 0)
}

// NewBRRIP returns a bimodal RRIP policy.
func NewBRRIP(sets, ways int) Policy {
	return newRRIP("BRRIP", sets, ways, 1)
}

// NewDRRIP returns a dynamic RRIP policy with set dueling between SRRIP and
// BRRIP, the paper's baseline high-performance policy (Table 3, [83]).
func NewDRRIP(sets, ways int) Policy {
	p := newRRIP("DRRIP", sets, ways, 2)
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

func newRRIP(name string, sets, ways, mode int) *rrip {
	rr := &rrip{name: name, ways: ways, rrpv: make([]uint8, sets*ways), mode: mode}
	for i := range rr.rrpv {
		rr.rrpv[i] = rripMax
	}
	return rr
}

func (p *rrip) Name() string { return p.name }

func (p *rrip) Hit(set, way int) { p.rrpv[set*p.ways+way] = 0 }

func (p *rrip) useBRRIP(set int) bool {
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

func (p *rrip) Insert(set, way int, pri InsertPriority) {
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

func (p *rrip) Miss(set int) {
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

// Victim returns the first eligible way with the highest RRPV and then ages
// every line in the set by that RRPV's distance from rripMax, saturating.
// That is what aging the set one step at a time until an eligible line
// reaches rripMax computes: after rripMax-top steps the first eligible way
// that started at top is the first to get there, and no eligible line got
// there sooner. An eligible line already at rripMax ends the pass early with
// nothing aged.
func (p *rrip) Victim(set int, skip []bool) int {
	rrpv := p.rrpv[set*p.ways : (set+1)*p.ways]
	best, top := -1, uint8(0)
	for w, r := range rrpv {
		if skip != nil && skip[w] {
			continue
		}
		if r == rripMax {
			return w
		}
		if best < 0 || r > top {
			best, top = w, r
		}
	}
	age := rripMax - top
	for w, r := range rrpv {
		rrpv[w] = min(r+age, rripMax)
	}
	return best
}

func (p *rrip) Age(set, way int) { p.rrpv[set*p.ways+way] = rripMax }
