package sim

import (
	"fmt"

	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/hybrid"
	"xmem/internal/kernel"
	"xmem/internal/numa"
)

// memorySystem is the memory below the L3s: a bare DRAM controller, or a
// region memory holding a hybrid machine's tiers or a NUMA machine's nodes.
type memorySystem interface {
	cache.Lower
	DrainAll()
	Stats() dram.Stats
	SetObserver(dram.Observer)
}

// memorySide is what the cores of one machine share below their L3s: the
// memory and the frame pool their address spaces draw from.
type memorySide struct {
	mem   memorySystem
	alloc kernel.FrameAllocator
	// tiers is a hybrid machine's memory: region 0 is DRAM, region 1 NVM
	// (nil on other machines).
	tiers *dram.RegionMemory
	// ports holds each core's port into a NUMA machine's node memory (nil
	// on other machines).
	ports []*numa.Port
}

// buildMemory assembles the memory side of a machine with the given
// number of cores. A plain machine gets a bare DRAM controller and the
// frame allocator cfg.Core.Alloc names. A hybrid or NUMA machine gets a
// region memory with a region allocator over it; on NUMA, core i sits on
// node i mod Nodes.
func buildMemory(cfg *MultiConfig, cores int) (*memorySide, error) {
	c := &cfg.Core
	if n := cfg.NUMA; n != nil {
		nodes, err := numa.New(numa.Config{Nodes: n.Nodes, NodeBytes: n.NodeBytes, Scheme: c.Scheme, Timing: c.Timing})
		if err != nil {
			return nil, err
		}
		usable := make([]uint64, n.Nodes)
		for i := range usable {
			usable[i] = n.NodeBytes
		}
		side := regionSide(nodes, usable...)
		for i := 0; i < cores; i++ {
			side.ports = append(side.ports, &numa.Port{Mem: nodes, Node: i % n.Nodes})
		}
		return side, nil
	}
	if h := c.Hybrid; h != nil {
		hc := hybrid.DefaultConfig(h.DRAMBytes, h.NVMBytes)
		hc.DRAM.IdealRBL, hc.NVM.IdealRBL = c.IdealRBL, c.IdealRBL
		tiers, err := dram.NewRegionMemory(hc.DRAM, hc.NVM)
		if err != nil {
			return nil, err
		}
		side := regionSide(tiers, h.DRAMBytes, h.NVMBytes)
		side.tiers = tiers
		return side, nil
	}
	ctl, err := dram.NewController(dram.Config{
		Geometry: c.Geometry,
		Timing:   c.Timing,
		Scheme:   c.Scheme,
		IdealRBL: c.IdealRBL,
		FCFS:     c.FCFS,
	})
	if err != nil {
		return nil, err
	}
	side := &memorySide{mem: ctl}
	switch c.Alloc {
	case AllocSequential, "":
		side.alloc = kernel.NewSequentialAllocator(c.Geometry.CapacityBytes)
	case AllocRandom:
		side.alloc = kernel.NewRandomizedAllocator(c.Geometry.CapacityBytes, c.AllocSeed)
	case AllocXMemPlacement:
		side.alloc = kernel.NewBankedAllocator(ctl.Mapping())
	default:
		return nil, fmt.Errorf("sim: unknown alloc policy %q", c.Alloc)
	}
	return side, nil
}

// regionSide pairs a region memory with a region allocator over the first
// usable[i] bytes of each region i.
func regionSide(rm *dram.RegionMemory, usable ...uint64) *memorySide {
	ranges := make([]kernel.FrameRange, len(usable))
	for i, b := range usable {
		ranges[i] = kernel.FrameRange{Base: rm.Base(i), Bytes: b}
	}
	return &memorySide{mem: rm, alloc: kernel.NewRegionAllocator(ranges...)}
}

// lower returns what core i's L3 sits over: its NUMA port, or the memory.
func (s *memorySide) lower(i int) cache.Lower {
	if s.ports != nil {
		return s.ports[i]
	}
	return s.mem
}

// result drains the memory and gathers the machine's result from its cores
// and their finishing cycles.
func (s *memorySide) result(ms []*Machine, cycles []uint64) MultiResult {
	s.mem.DrainAll()
	res := MultiResult{DRAM: s.mem.Stats(), RemoteFraction: numa.RemoteFraction(s.ports)}
	for i, m := range ms {
		res.Cores = append(res.Cores, m.result(cycles[i]))
		res.Cycles = max(res.Cycles, cycles[i])
	}
	return res
}

// placement picks core i's OS placement policy: the DRAM bank groups, the
// hybrid tier or the NUMA node its atoms' pages prefer. nil leaves the
// choice to the frame allocator.
func placement(cfg *MultiConfig, atoms []xm.Atom, i int) (kernel.PlacementPolicy, error) {
	if n := cfg.NUMA; n != nil {
		switch n.Placement {
		case "", "interleave":
			return nil, nil
		case "node0":
			return kernel.FirstTouch{}, nil
		case "xmem":
			return numa.NewPlacement(atoms, i%n.Nodes, func(t int) int { return t % n.Nodes }), nil
		}
		return nil, fmt.Errorf("sim: unknown NUMA placement %q", n.Placement)
	}
	if h := cfg.Core.Hybrid; h != nil {
		if h.XMemPlacement {
			return hybrid.NewPlacement(atoms), nil
		}
		return kernel.FirstTouch{}, nil
	}
	if cfg.Core.Alloc == AllocXMemPlacement {
		return kernel.NewXMemPlacement(atoms, cfg.Core.Geometry.BanksPerChannel()), nil
	}
	return nil, nil
}
