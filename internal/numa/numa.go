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
	"xmem/internal/kernel"
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
	// RemoteLatency is the added cycles for a cross-node access (0 =
	// DefaultRemoteLatency).
	RemoteLatency uint64
	// DRAM configures each node's controller (geometry capacity is
	// overridden by NodeBytes).
	Scheme string
	Timing dram.Timing
}

// Memory is the multi-node memory system. Each node's port (see Port) adds
// the interconnect penalty to accesses that resolve on another node.
type Memory struct {
	nodes  []*dram.Controller
	node   func(pa mem.Addr) int
	nodeSz uint64
	remote uint64
	// remoteAccesses counts cross-node traffic (the metric placement
	// minimizes).
	remoteAccesses uint64
	localAccesses  uint64
}

// New builds the node controllers.
func New(cfg Config) (*Memory, error) {
	if cfg.Nodes <= 0 || cfg.Nodes&(cfg.Nodes-1) != 0 {
		return nil, fmt.Errorf("numa: node count %d not a power of two", cfg.Nodes)
	}
	if cfg.RemoteLatency == 0 {
		cfg.RemoteLatency = DefaultRemoteLatency
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "ro:ra:ba:co:ch"
	}
	if cfg.Timing.Burst == 0 {
		cfg.Timing = dram.DefaultTiming()
	}
	m := &Memory{nodeSz: cfg.NodeBytes, remote: cfg.RemoteLatency}
	m.node = func(pa mem.Addr) int { return int(uint64(pa)/cfg.NodeBytes) % cfg.Nodes }
	for i := 0; i < cfg.Nodes; i++ {
		g := dram.DefaultGeometry()
		g.CapacityBytes = cfg.NodeBytes
		ctl, err := dram.NewController(dram.Config{
			Geometry: g, Timing: cfg.Timing, Scheme: cfg.Scheme,
		})
		if err != nil {
			return nil, err
		}
		m.nodes = append(m.nodes, ctl)
	}
	return m, nil
}

// Nodes returns the node count.
func (m *Memory) Nodes() int { return len(m.nodes) }

// access routes one request, adding the interconnect penalty when the
// requester's node differs from the owning node.
func (m *Memory) access(from int, pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	owner := m.node(pa)
	local := owner == from
	penalty := uint64(0)
	if !local {
		penalty = m.remote
		m.remoteAccesses++
	} else {
		m.localAccesses++
	}
	res := m.nodes[owner].Access(pa-mem.Addr(uint64(owner)*m.nodeSz), kind, at+penalty, pc)
	if kind == mem.Writeback {
		return res
	}
	return res.Offset(penalty)
}

// DrainAll finishes every node.
func (m *Memory) DrainAll() {
	for _, n := range m.nodes {
		n.DrainAll()
	}
}

// Stats returns combined controller counters.
func (m *Memory) Stats() dram.Stats {
	var out dram.Stats
	for _, n := range m.nodes {
		s := n.Stats()
		out.Reads += s.Reads
		out.Writes += s.Writes
		out.DemandReads += s.DemandReads
		out.WriteQueueHits += s.WriteQueueHits
		out.RowHits += s.RowHits
		out.RowEmpty += s.RowEmpty
		out.RowConflicts += s.RowConflicts
		out.DemandReadLatencySum += s.DemandReadLatencySum
		out.WriteLatencySum += s.WriteLatencySum
		out.BusBusy += s.BusBusy
		out.ReadLatency.Merge(&s.ReadLatency)
	}
	return out
}

// RemoteFraction is the share of accesses that crossed the interconnect.
func (m *Memory) RemoteFraction() float64 {
	total := m.remoteAccesses + m.localAccesses
	if total == 0 {
		return 0
	}
	return float64(m.remoteAccesses) / float64(total)
}

// Mapping returns node 0's address mapping (bank-aware allocation view).
func (m *Memory) Mapping() *dram.Mapping { return m.nodes[0].Mapping() }

// Port is one core's view of the memory: it stamps accesses with the
// core's node. It implements cache.Lower.
type Port struct {
	Mem  *Memory
	Node int
}

// Access implements cache.Lower.
func (p *Port) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	return p.Mem.access(p.Node, pa, kind, at, pc)
}

// DrainAll delegates to the shared memory.
func (p *Port) DrainAll() { p.Mem.DrainAll() }

// Stats delegates to the shared memory.
func (p *Port) Stats() dram.Stats { return p.Mem.Stats() }

// Mapping delegates to the shared memory.
func (p *Port) Mapping() *dram.Mapping { return p.Mem.Mapping() }

// Allocator hands out frames by node: preferred-bank group i is node i.
type Allocator struct {
	next   []uint64
	limit  uint64
	nodeSz uint64
	// rr interleaves nodes for unpreferred allocations (the classic OS
	// default policy for shared pages).
	rr int
}

// NewAllocator covers nodes × nodeBytes.
func NewAllocator(nodes int, nodeBytes uint64) *Allocator {
	return &Allocator{
		next:   make([]uint64, nodes),
		limit:  nodeBytes / mem.PageBytes,
		nodeSz: nodeBytes,
	}
}

// AllocFrame implements kernel.FrameAllocator.
func (a *Allocator) AllocFrame(preferred []int) (mem.Addr, error) {
	try := func(node int) (mem.Addr, bool) {
		if node < 0 || node >= len(a.next) || a.next[node] >= a.limit {
			return 0, false
		}
		f := a.next[node]
		a.next[node]++
		return mem.Addr(uint64(node)*a.nodeSz + f*mem.PageBytes), true
	}
	for _, p := range preferred {
		if f, ok := try(p); ok {
			return f, nil
		}
	}
	// No (usable) preference: interleave round-robin.
	for i := 0; i < len(a.next); i++ {
		node := (a.rr + i) % len(a.next)
		if f, ok := try(node); ok {
			a.rr = (node + 1) % len(a.next)
			return f, nil
		}
	}
	return 0, kernel.ErrOutOfMemory
}

// FreeFrames implements kernel.FrameAllocator.
func (a *Allocator) FreeFrames() int {
	n := uint64(0)
	for _, used := range a.next {
		n += a.limit - used
	}
	return int(n)
}

// FrameNode reports the node owning a frame.
func (a *Allocator) FrameNode(frame mem.Addr) int {
	return int(uint64(frame) / a.nodeSz)
}

// Placement is the XMem NUMA policy for the process running on localNode:
// atoms whose Home names a thread allocate on that thread's node; atoms
// without affinity allocate locally (this process expressed them, so this
// process accesses them). A nil policy — the baseline — interleaves.
type Placement struct {
	local      int
	homeOf     map[core.AtomID]int
	threadNode func(thread int) int
}

// NewPlacement reads Home attributes from the atom segment. threadNode maps
// thread indexes to nodes (nil = identity).
func NewPlacement(atoms []core.Atom, localNode int, threadNode func(int) int) *Placement {
	if threadNode == nil {
		threadNode = func(t int) int { return t }
	}
	p := &Placement{local: localNode, homeOf: map[core.AtomID]int{}, threadNode: threadNode}
	for _, a := range atoms {
		if t, ok := core.HomeOf(a.Attrs.Home); ok {
			p.homeOf[a.ID] = threadNode(t)
		}
	}
	return p
}

// PreferredBanks implements kernel.PlacementPolicy (bank group = node).
func (p *Placement) PreferredBanks(id core.AtomID) []int {
	if node, ok := p.homeOf[id]; ok {
		return []int{node}
	}
	return []int{p.local}
}
