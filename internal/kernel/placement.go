package kernel

import (
	"sort"

	"xmem/internal/core"
)

// IsolationIntensityThreshold is the minimum access intensity an atom needs
// before the placement algorithm dedicates a bank to it: isolating a cold
// structure would waste a bank and reduce overall MLP (§6.2: the algorithm
// isolates high-RBL structures "while ensuring that their access frequencies
// are high enough that allocating a bank for them does not reduce the
// overall MLP").
const IsolationIntensityThreshold = 32

// XMemPlacement is the OS DRAM placement policy of §6.2: it reads the atom
// attributes from the program's atom segment, dedicates banks to hot
// high-row-buffer-locality data structures (isolating them from interfering
// accesses), and spreads every other structure — in particular irregular
// ones — across the remaining banks to maximize bank-level parallelism.
type XMemPlacement struct {
	isolated core.PerAtom[[]int]
	shared   []int
}

// NewXMemPlacement computes the bank assignment for the given atoms over
// bankGroups per-channel bank groups. Isolated structures receive banks in
// proportion to their expressed access intensity — a structure carrying most
// of the traffic needs several banks of its own, or isolation would trade
// row locality for a bank-parallelism bottleneck (the MLP concern of §6.2).
// At least a quarter of the banks always remain in the shared pool.
func NewXMemPlacement(atoms []core.Atom, bankGroups int) *XMemPlacement {
	g := core.NewGAT()
	g.LoadAtoms(atoms)
	pat := core.TranslateMemCtl(g)

	type cand struct {
		id        core.AtomID
		intensity uint8
	}
	var cands []cand
	totalIntensity := 0
	for _, a := range atoms {
		attr, ok := pat.Lookup(a.ID)
		if !ok {
			continue
		}
		totalIntensity += int(attr.Intensity)
		if attr.HighRBL && attr.Intensity >= IsolationIntensityThreshold {
			cands = append(cands, cand{id: a.ID, intensity: attr.Intensity})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].intensity != cands[j].intensity {
			return cands[i].intensity > cands[j].intensity
		}
		return cands[i].id < cands[j].id
	})

	p := &XMemPlacement{}
	minShared := bankGroups / 4
	if minShared < 1 {
		minShared = 1
	}
	nextBank := bankGroups - 1
	for _, c := range cands {
		remaining := nextBank + 1 - minShared
		if remaining < 1 {
			break
		}
		// Banks proportional to the structure's share of total traffic.
		want := 1
		if totalIntensity > 0 {
			want = int(float64(c.intensity)/float64(totalIntensity)*float64(bankGroups) + 0.5)
		}
		if want < 1 {
			want = 1
		}
		if want > remaining {
			want = remaining
		}
		banks := make([]int, 0, want)
		for k := 0; k < want; k++ {
			banks = append(banks, nextBank)
			nextBank--
		}
		*p.isolated.At(c.id) = banks
	}
	for b := 0; b <= nextBank; b++ {
		p.shared = append(p.shared, b)
	}
	if len(p.shared) == 0 { // degenerate geometry: everything shares bank 0
		p.shared = []int{0}
	}
	return p
}

// PreferredBanks implements PlacementPolicy.
func (p *XMemPlacement) PreferredBanks(atom core.AtomID) []int {
	if banks := p.isolated.Get(atom); banks != nil {
		return banks
	}
	return p.shared
}

// IsolatedAtoms returns the atoms that received dedicated banks, sorted.
func (p *XMemPlacement) IsolatedAtoms() []core.AtomID {
	var ids []core.AtomID
	for i := 0; i < p.isolated.Len(); i++ {
		if p.isolated.Get(core.AtomID(i)) != nil {
			ids = append(ids, core.AtomID(i))
		}
	}
	return ids
}

// SharedBanks returns the shared bank pool.
func (p *XMemPlacement) SharedBanks() []int {
	out := make([]int, len(p.shared))
	copy(out, p.shared)
	return out
}

// The tiers of a hybrid memory are the regions of its RegionAllocator, in
// this order: the fast DRAM tier is region 0, so FirstTouch fills it first,
// and the NVM capacity tier is region 1.
const (
	TierDRAM = iota
	TierNVM
)

// FirstTouch places every page in region 0 of a RegionAllocator, the
// semantics-blind default. On a NUMA machine whose main thread initializes
// the data, everything lands on node 0; on a hybrid memory, the fast tier
// (TierDRAM) fills first and later pages spill to the capacity tier.
type FirstTouch struct{}

// PreferredBanks implements PlacementPolicy.
func (FirstTouch) PreferredBanks(core.AtomID) []int { return []int{TierDRAM} }

// regionPlacement steers each atom it holds regions for to those regions of
// a RegionAllocator, and every other atom to the fallback regions. The tier
// and Home rules below are its two instances (Table 1 rows 7 and 8: the
// atoms' attributes pick the region a page lands in, before first touch and
// without profiling).
type regionPlacement struct {
	byAtom   core.PerAtom[[]int]
	fallback []int
}

// PreferredBanks implements PlacementPolicy.
func (p *regionPlacement) PreferredBanks(id core.AtomID) []int {
	if regions := p.byAtom.Get(id); regions != nil {
		return regions
	}
	return p.fallback
}

// hotTierIntensity is the access intensity at which even read-only data
// earns the fast tier of a hybrid memory.
const hotTierIntensity = 170

// NewTierPlacement is the XMem tier policy for a hybrid memory (Table 1,
// hybrid memories): structures that are written, or hot, deserve DRAM; cold
// read-only data goes to NVM, where the write asymmetry cannot hurt it. An
// atom the segment does not declare prefers DRAM, as FirstTouch does.
func NewTierPlacement(atoms []core.Atom) PlacementPolicy {
	p := &regionPlacement{fallback: []int{TierDRAM}}
	nvm := []int{TierNVM}
	for _, a := range atoms {
		written := a.Attrs.RW == core.ReadWrite || a.Attrs.RW == core.WriteOnly
		if !written && a.Attrs.Intensity < hotTierIntensity {
			*p.byAtom.At(a.ID) = nvm
		}
	}
	return p
}

// NewHomePlacement is the XMem NUMA policy for a process on node local of a
// machine with the given node count, thread t running on node t mod nodes
// (Table 1, NUMA): an atom whose Home attribute names a thread allocates on
// that thread's node; an atom without affinity allocates locally (this
// process expressed it, so this process accesses it).
func NewHomePlacement(atoms []core.Atom, local, nodes int) PlacementPolicy {
	p := &regionPlacement{fallback: []int{local}}
	for _, a := range atoms {
		if t, ok := core.HomeOf(a.Attrs.Home); ok {
			*p.byAtom.At(a.ID) = []int{t % nodes}
		}
	}
	return p
}
