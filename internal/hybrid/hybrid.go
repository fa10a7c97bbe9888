// Package hybrid implements the hybrid-memory placement use case of
// Table 1: a fast DRAM tier in front of a larger, slower NVM tier with
// asymmetric write cost. XMem's contribution is the placement policy: the
// atom attributes (read/write characteristics, access intensity) tell the
// OS — before first touch and without profiling — which structures belong
// in the scarce fast tier and which tolerate the NVM (e.g., read-only data,
// whose placement there avoids the NVM's write asymmetry entirely).
package hybrid

import (
	"xmem/internal/core"
	"xmem/internal/dram"
)

// Tier identifies a memory tier.
type Tier int

// Tiers, numbered as the regions of the machine's region memory (and so
// as the preferred bank groups of its region allocator).
const (
	// TierDRAM is the fast tier, region 0.
	TierDRAM Tier = iota
	// TierNVM is the capacity tier, region 1.
	TierNVM
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	if t == TierDRAM {
		return "DRAM"
	}
	return "NVM"
}

// Config sizes the two tiers. Built as dram.NewRegionMemory(DRAM, NVM),
// the DRAM device spans physical addresses from 0 up to its capacity and
// the NVM device everything beyond.
type Config struct {
	// DRAM and NVM configure the two controllers.
	DRAM dram.Config
	NVM  dram.Config
}

// DefaultConfig returns a hybrid system with the given fast-tier capacity
// and an NVM tier of nvmBytes behind it. Device capacities round up to the
// next power of two (the geometry's row addressing needs it); the usable
// budget each tier exposes to the allocator stays exact.
func DefaultConfig(dramBytes, nvmBytes uint64) Config {
	g := dram.DefaultGeometry()
	g.CapacityBytes = nextPow2(dramBytes)
	n := dram.DefaultGeometry()
	n.CapacityBytes = nextPow2(nvmBytes)
	return Config{
		DRAM: dram.Config{Geometry: g, Timing: dram.DefaultTiming(), Scheme: "ro:ra:ba:co:ch"},
		NVM:  dram.Config{Geometry: n, Timing: dram.NVMTiming(), Scheme: "ro:ra:ba:co:ch"},
	}
}

// nextPow2 rounds up to a power of two, with a floor of one DRAM row per
// bank so tiny test configurations stay valid.
func nextPow2(v uint64) uint64 {
	p := uint64(1 << 20)
	for p < v {
		p <<= 1
	}
	return p
}

// Placement is the XMem tier policy (Table 1, hybrid memories): structures
// that are written, or hot, deserve the fast tier; read-only and cold data
// goes to NVM, where the write asymmetry cannot hurt it.
type Placement struct {
	tiers core.PerAtom[Tier]
}

// hotThreshold is the intensity above which even read-only data earns DRAM.
const hotThreshold = 170

// NewPlacement decides a tier per atom from the atom segment.
func NewPlacement(atoms []core.Atom) *Placement {
	p := &Placement{}
	for _, a := range atoms {
		*p.tiers.At(a.ID) = decide(a.Attrs)
	}
	return p
}

func decide(attrs core.Attributes) Tier {
	writes := attrs.RW == core.ReadWrite || attrs.RW == core.WriteOnly
	switch {
	case writes:
		return TierDRAM
	case attrs.Intensity >= hotThreshold:
		return TierDRAM
	default:
		return TierNVM
	}
}

// PreferredBanks implements kernel.PlacementPolicy: the atom's tier as a
// region of the region allocator. An atom with no decided tier prefers
// DRAM, as the first-touch baseline does.
func (p *Placement) PreferredBanks(id core.AtomID) []int {
	return []int{int(p.tiers.Get(id))}
}
