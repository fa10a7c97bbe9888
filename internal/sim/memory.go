package sim

import (
	"fmt"

	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
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
// memory, the frame pool their address spaces draw from, and the table of
// each frame's owner (filled only with metrics or spans on; the cores hold
// it by pointer).
type memorySide struct {
	mem    memorySystem
	alloc  kernel.FrameAllocator
	frames frameTable
	// tiers is a hybrid machine's memory, its regions numbered tierDRAM
	// and tierNVM (nil on other machines).
	tiers *dram.RegionMemory
	// ports holds each core's port into a NUMA machine's node memory (nil
	// on other machines).
	ports []*port
}

// The tiers of a hybrid machine are the regions of its memory, in this
// order: kernel.FirstTouch fills the DRAM tier first, and
// kernel.NewTierPlacement names the same regions.
const (
	tierDRAM = iota
	tierNVM
)

// frameTable records each physical frame's owner: the core whose Malloc
// took it and the atom that Malloc tagged it with (§4.1.2: the OS learns an
// allocation's atom before first touch). A frame belongs to one process, so
// every DRAM command has one owning core. The table is dense, indexed by
// frame number, and grows to the highest frame set; a frame no core
// allocated reads as the zero entry, core 0 and untagged.
type frameTable struct {
	owners []frameOwner
}

// frameOwner is one frame's entry (cores are far fewer than 2^16). tag is
// the atom plus one, so the zero entry is untagged: InvalidAtom (0xFFFF)
// wraps to 0.
type frameOwner struct {
	core uint16
	tag  xm.AtomID
}

// set records that core allocated the frame holding pa and tagged it with
// atom.
func (t *frameTable) set(pa mem.Addr, core int, atom xm.AtomID) {
	f := mem.PageIndex(pa)
	if n := uint64(len(t.owners)); f >= n {
		t.owners = append(t.owners, make([]frameOwner, f+1-n)...)
	}
	t.owners[f] = frameOwner{core: uint16(core), tag: atom + 1}
}

// owner returns the core that allocated the frame holding pa and the atom
// it tagged the frame with.
func (t *frameTable) owner(pa mem.Addr) (core int, atom xm.AtomID) {
	var e frameOwner
	if f := mem.PageIndex(pa); f < uint64(len(t.owners)) {
		e = t.owners[f]
	}
	return int(e.core), e.tag - 1
}

// buildMemory assembles the memory side of a machine with the given
// number of cores. Every device is built by device from cfg.Core. A plain
// machine gets a bare DRAM controller and the frame allocator cfg.Core.Alloc
// names. A hybrid or NUMA machine gets a region memory with a region
// allocator over it; on NUMA, core i sits on node i mod Nodes.
func buildMemory(cfg *MultiConfig, cores int) (*memorySide, error) {
	c := &cfg.Core
	if n := cfg.NUMA; n != nil {
		if n.Nodes <= 0 {
			return nil, fmt.Errorf("sim: NUMA node count %d, want at least one", n.Nodes)
		}
		devices := make([]dram.Config, n.Nodes)
		usable := make([]uint64, n.Nodes)
		for i := range devices {
			devices[i], usable[i] = device(c, n.NodeBytes, c.Timing), n.NodeBytes
		}
		nodes, err := dram.NewRegionMemory(devices...)
		if err != nil {
			return nil, err
		}
		side := regionSide(nodes, usable...)
		for i := 0; i < cores; i++ {
			side.ports = append(side.ports, &port{mem: nodes, node: i % n.Nodes})
		}
		return side, nil
	}
	if h := c.Hybrid; h != nil {
		tiers, err := dram.NewRegionMemory(
			device(c, tierCapacity(h.DRAMBytes), c.Timing),
			device(c, tierCapacity(h.NVMBytes), dram.NVMTiming()))
		if err != nil {
			return nil, err
		}
		side := regionSide(tiers, h.DRAMBytes, h.NVMBytes)
		side.tiers = tiers
		return side, nil
	}
	ctl, err := dram.NewController(device(c, c.Geometry.CapacityBytes, c.Timing))
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

// device is the controller configuration of one memory device of c's
// machine: c's geometry at the given capacity, c's scheme, ideal-RBL and
// FCFS modes, and the given timing.
func device(c *Config, capacity uint64, t dram.Timing) dram.Config {
	g := c.Geometry
	g.CapacityBytes = capacity
	return dram.Config{Geometry: g, Timing: t, Scheme: c.Scheme, IdealRBL: c.IdealRBL, FCFS: c.FCFS}
}

// tierCapacity is the device capacity behind a hybrid tier of the given
// usable bytes: the next power of two (row addressing needs one), at least
// 1 MiB so tiny tiers stay valid. The allocator still sees the exact budget.
func tierCapacity(usable uint64) uint64 {
	p := uint64(1 << 20)
	for p < usable {
		p <<= 1
	}
	return p
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

// remoteLatency is the one-way interconnect penalty a NUMA access to
// another node's memory pays, in CPU cycles (~30 ns at 3.6 GHz).
const remoteLatency = 108

// port is one core's view of a NUMA machine's node memory. It implements
// cache.Lower: an access to another node's region pays remoteLatency on the
// way there and, unless it is a posted writeback, again on the way back.
type port struct {
	mem  *dram.RegionMemory
	node int
	// remote and local count the port's cross-node and same-node accesses.
	remote, local uint64
}

// Access implements cache.Lower.
func (p *port) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	if p.mem.Region(pa) == p.node {
		p.local++
		return p.mem.Access(pa, kind, at, pc)
	}
	p.remote++
	res := p.mem.Access(pa, kind, at+remoteLatency, pc)
	if kind == mem.Writeback {
		return res
	}
	return res.Offset(remoteLatency)
}

// remoteFraction is the share of the ports' accesses that crossed the
// interconnect (the metric NUMA placement minimizes); 0 with no accesses.
func remoteFraction(ports []*port) float64 {
	var remote, total uint64
	for _, p := range ports {
		remote += p.remote
		total += p.remote + p.local
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
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
	res := MultiResult{DRAM: s.mem.Stats(), RemoteFraction: remoteFraction(s.ports)}
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
			return kernel.NewHomePlacement(atoms, i%n.Nodes, n.Nodes), nil
		}
		return nil, fmt.Errorf("sim: unknown NUMA placement %q", n.Placement)
	}
	if h := cfg.Core.Hybrid; h != nil {
		if h.XMemPlacement {
			return kernel.NewTierPlacement(atoms), nil
		}
		return kernel.FirstTouch{}, nil
	}
	if cfg.Core.Alloc == AllocXMemPlacement {
		return kernel.NewXMemPlacement(atoms, cfg.Core.Geometry.BanksPerChannel()), nil
	}
	return nil, nil
}
