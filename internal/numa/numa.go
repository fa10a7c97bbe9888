// Package numa implements the NUMA data-placement use case of Table 1: a
// multi-socket machine where each node owns a memory controller and remote
// accesses pay an interconnect penalty. The atom attribute that drives
// placement is Home ("data partitioning across threads" — relating data to
// the thread that accesses it), which lets the OS co-locate data with its
// accessor at allocation time, removing the profiling or page-migration
// passes a semantics-blind OS needs.
package numa

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/mem"
)

// DefaultRemoteLatency is the one-way interconnect penalty added to every
// cross-node access, in CPU cycles (~30 ns at 3.6 GHz).
const DefaultRemoteLatency = 108

// Config sizes the machine.
type Config struct {
	// Nodes is the socket count (a power of two).
	Nodes int
	// NodeBytes is each node's memory capacity (a power of two).
	NodeBytes uint64
	// Scheme and Timing configure each node's controller ("" and zero
	// select the DRAM defaults).
	Scheme string
	Timing dram.Timing
}

// New builds the node memory: one region per node, in node order, so node
// i owns the physical addresses from i×NodeBytes up to (i+1)×NodeBytes.
func New(cfg Config) (*dram.RegionMemory, error) {
	if cfg.Nodes <= 0 || cfg.Nodes&(cfg.Nodes-1) != 0 {
		return nil, fmt.Errorf("numa: node count %d not a power of two", cfg.Nodes)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "ro:ra:ba:co:ch"
	}
	if cfg.Timing.Burst == 0 {
		cfg.Timing = dram.DefaultTiming()
	}
	g := dram.DefaultGeometry()
	g.CapacityBytes = cfg.NodeBytes
	nodes := make([]dram.Config, cfg.Nodes)
	for i := range nodes {
		nodes[i] = dram.Config{Geometry: g, Timing: cfg.Timing, Scheme: cfg.Scheme}
	}
	return dram.NewRegionMemory(nodes...)
}

// Port is one core's view of the node memory. It implements cache.Lower:
// an access to another node's region pays DefaultRemoteLatency on the way
// there and, unless it is a posted writeback, again on the way back.
type Port struct {
	Mem  *dram.RegionMemory
	Node int
	// Remote and Local count the port's cross-node and same-node
	// accesses.
	Remote, Local uint64
}

// Access implements cache.Lower.
func (p *Port) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	if p.Mem.Region(pa) == p.Node {
		p.Local++
		return p.Mem.Access(pa, kind, at, pc)
	}
	p.Remote++
	res := p.Mem.Access(pa, kind, at+DefaultRemoteLatency, pc)
	if kind == mem.Writeback {
		return res
	}
	return res.Offset(DefaultRemoteLatency)
}

// RemoteFraction is the share of the ports' accesses that crossed the
// interconnect (the metric placement minimizes); 0 with no accesses.
func RemoteFraction(ports []*Port) float64 {
	var remote, total uint64
	for _, p := range ports {
		remote += p.Remote
		total += p.Remote + p.Local
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
}

// Placement is the XMem NUMA policy for the process running on localNode:
// atoms whose Home names a thread allocate on that thread's node; atoms
// without affinity allocate locally (this process expressed them, so this
// process accesses them). A nil policy — the baseline — interleaves.
type Placement struct {
	local int
	// home holds the one-node preference of each atom with a Home.
	home core.PerAtom[[]int]
}

// NewPlacement reads Home attributes from the atom segment. threadNode maps
// thread indexes to nodes (nil = identity).
func NewPlacement(atoms []core.Atom, localNode int, threadNode func(int) int) *Placement {
	if threadNode == nil {
		threadNode = func(t int) int { return t }
	}
	p := &Placement{local: localNode}
	for _, a := range atoms {
		if t, ok := core.HomeOf(a.Attrs.Home); ok {
			*p.home.At(a.ID) = []int{threadNode(t)}
		}
	}
	return p
}

// PreferredBanks implements kernel.PlacementPolicy (bank group = node).
func (p *Placement) PreferredBanks(id core.AtomID) []int {
	if banks := p.home.Get(id); banks != nil {
		return banks
	}
	return []int{p.local}
}
