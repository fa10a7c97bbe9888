package sim

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/numa"
	"xmem/internal/workload"
)

// MultiConfig describes a multi-core machine: per-core private hierarchies
// (the paper's Table 3 partitions the L3 per core) over one shared memory
// controller and one shared pool of physical frames, so co-runners contend
// for DRAM banks and bandwidth exactly as the paper's co-run scenarios do.
type MultiConfig struct {
	// Core is the per-core configuration (caches, prefetchers, XMem
	// flags). DRAM fields configure the single shared controller.
	Core Config
	// QuantumCycles is the interleaving granularity of the deterministic
	// scheduler (0 = 500).
	QuantumCycles uint64
	// NUMA, when set, replaces the shared controller with a multi-node
	// memory: core i runs on node i mod Nodes, remote accesses pay the
	// interconnect penalty, and — with XMemPlacement — each process'
	// pages land on the node its atoms' Home attributes name.
	NUMA *NUMAConfig
}

// NUMAConfig sizes the multi-node memory.
type NUMAConfig struct {
	// Nodes is the socket count.
	Nodes int
	// NodeBytes is each node's capacity.
	NodeBytes uint64
	// RemoteLatency is the cross-node penalty in cycles (0 = default).
	RemoteLatency uint64
	// Placement selects the OS policy: "interleave" (default) spreads
	// pages round-robin, "node0" models first-touch by an initializing
	// main thread (everything lands on node 0), and "xmem" uses the
	// atoms' Home attributes to co-locate data with its accessor.
	Placement string
}

// MultiResult aggregates a multi-programmed run.
type MultiResult struct {
	// Cores holds one result per workload; the DRAM stats in each are the
	// shared controller's machine-wide totals. With Config.Metrics each
	// core carries its own Metrics/PerAtom report (private-hierarchy events
	// only: shared-controller DRAM commands are not attributed, because
	// per-core ownership of a shared-bank command is ambiguous). For the
	// same reason spans from Config.SpanSample carry AMU and cache stages
	// but no dram/nvm stage on multi-core machines.
	Cores []Result
	// Cycles is the finishing time of the slowest core.
	Cycles uint64
	// DRAM is the shared controller's final counters.
	DRAM dram.Stats
	// RemoteFraction is the share of memory accesses that crossed the
	// NUMA interconnect (0 on non-NUMA machines).
	RemoteFraction float64
}

// token is the ownership baton the scheduler passes between core
// goroutines: holding it grants the right to run the core and to touch the
// shared memory system.
type token struct{}

// coreTask is the scheduler's view of one running core.
type coreTask struct {
	m *Machine
	// start carries the token granting the core the right to run; finish
	// is the run's shared completion channel the last core returns it on
	// (cores otherwise hand the token directly to each other).
	start  chan token
	finish chan token

	cycle      uint64
	quantumEnd uint64
	done       bool
	finalCycle uint64

	// Handoff state: the yielding core itself picks the next runnable
	// peer.
	peers   []*coreTask
	quantum uint64
}

// nextLive returns the runnable task with the smallest local cycle, ties to
// the lowest index — the deterministic lockstep order. nil means every core
// has finished.
func (t *coreTask) nextLive() *coreTask {
	var next *coreTask
	for _, p := range t.peers {
		if p.done {
			continue
		}
		if next == nil || p.cycle < next.cycle {
			next = p
		}
	}
	return next
}

// handoff primes the next runnable core's quantum and returns the channel
// that transfers the token to it; with no live core left it returns the
// run's completion channel.
func (t *coreTask) handoff() chan<- token {
	if next := t.nextLive(); next != nil {
		next.quantumEnd = next.cycle + next.quantum
		return next.start
	}
	return t.finish
}

// RunMulti executes the workloads concurrently, one per core. Cores share
// the memory controller and physical memory; everything else is private.
//
// The scheduler interleaves cores deterministically on one goroutine's
// worth of execution at a time: the live core with the lowest local cycle
// runs one quantum, then hands the token to the next.
func RunMulti(cfg MultiConfig, ws []workload.Workload) (MultiResult, error) {
	if len(ws) == 0 {
		return MultiResult{}, fmt.Errorf("sim: no workloads")
	}
	quantum := cfg.QuantumCycles
	if quantum == 0 {
		quantum = 500
	}

	// Shared memory system: one controller, or a multi-node NUMA memory.
	var ctl memorySystem
	var alloc kernel.FrameAllocator
	var numaMem *numa.Memory
	if cfg.NUMA != nil {
		nm, err := numa.New(numa.Config{
			Nodes:         cfg.NUMA.Nodes,
			NodeBytes:     cfg.NUMA.NodeBytes,
			RemoteLatency: cfg.NUMA.RemoteLatency,
			Scheme:        cfg.Core.Scheme,
			Timing:        cfg.Core.Timing,
		})
		if err != nil {
			return MultiResult{}, err
		}
		numaMem = nm
		alloc = numa.NewAllocator(cfg.NUMA.Nodes, cfg.NUMA.NodeBytes)
	} else {
		var err error
		ctl, alloc, _, err = buildDRAM(cfg.Core, nil)
		if err != nil {
			return MultiResult{}, err
		}
	}

	allDone := make(chan token)
	tasks := make([]*coreTask, len(ws))
	for i, w := range ws {
		atoms, err := declareAtoms(w)
		if err != nil {
			return MultiResult{}, err
		}
		if cfg.Core.StripAtomAttrs {
			stripAtomAttrs(atoms)
		}
		var policy kernel.PlacementPolicy
		coreCtl := ctl
		if numaMem != nil {
			node := i % numaMem.Nodes()
			coreCtl = &numa.Port{Mem: numaMem, Node: node}
			policy, err = numaPolicy(cfg.NUMA, atoms, node, numaMem.Nodes())
			if err != nil {
				return MultiResult{}, err
			}
		} else if cfg.Core.Alloc == AllocXMemPlacement {
			policy = kernel.NewXMemPlacement(atoms, cfg.Core.Geometry.BanksPerChannel())
		}
		m, err := buildMachine(cfg.Core, w, atoms, coreCtl, alloc, policy)
		if err != nil {
			return MultiResult{}, err
		}
		t := &coreTask{
			m:       m,
			start:   make(chan token),
			finish:  allDone,
			quantum: quantum,
		}
		m.yield = func(cycle uint64) {
			t.cycle = cycle
			if cycle < t.quantumEnd {
				return
			}
			next := t.nextLive()
			if next == t {
				// Still the furthest-behind core: continue in place.
				// This self-continuation is the common case for balanced
				// co-runners and costs zero channel operations.
				t.quantumEnd = cycle + t.quantum
				return
			}
			next.quantumEnd = next.cycle + next.quantum
			next.start <- token{}
			<-t.start
		}
		tasks[i] = t
	}
	for _, t := range tasks {
		t.peers = tasks
	}

	// One goroutine per core; a single token circulates directly between
	// cores (no central scheduler goroutine), so exactly one core touches
	// the shared structures at any moment. The body follows the ownership-
	// transfer protocol the noshare analyzer proves: first use receives the
	// token from the task's channel, last use relinquishes it with a send.
	for _, t := range tasks {
		t := t
		go func() {
			<-t.start
			t.m.w.Run(t.m)
			t.finalCycle = t.m.core.Finish()
			t.cycle = t.finalCycle
			t.done = true
			t.handoff() <- token{}
		}()
	}

	// Inject the token at the deterministic first pick (all cycles are 0,
	// so ties resolve to core 0) and wait for the last core to return it.
	first := tasks[0]
	first.quantumEnd = first.cycle + quantum
	first.start <- token{}
	<-allDone

	var res MultiResult
	if numaMem != nil {
		numaMem.DrainAll()
		res.DRAM = numaMem.Stats()
		res.RemoteFraction = numaMem.RemoteFraction()
	} else {
		ctl.DrainAll()
		res.DRAM = ctl.Stats()
	}
	for _, t := range tasks {
		r := t.m.result(t.finalCycle)
		res.Cores = append(res.Cores, r)
		if t.finalCycle > res.Cycles {
			res.Cycles = t.finalCycle
		}
	}
	return res, nil
}

// numaPolicy resolves the placement policy for a core on the given node.
func numaPolicy(nc *NUMAConfig, atoms []core.Atom, node, nodes int) (kernel.PlacementPolicy, error) {
	switch nc.Placement {
	case "", "interleave":
		// nil policy: the allocator interleaves.
		return nil, nil
	case "node0":
		return fixedNodePolicy{}, nil
	case "xmem":
		return numa.NewPlacement(atoms, node, func(t int) int {
			return t % nodes
		}), nil
	default:
		return nil, fmt.Errorf("sim: unknown NUMA placement %q", nc.Placement)
	}
}

// fixedNodePolicy pins every allocation to node 0 — the first-touch-by-
// main-thread pathology of semantics-blind NUMA systems.
type fixedNodePolicy struct{}

// PreferredBanks implements kernel.PlacementPolicy.
func (fixedNodePolicy) PreferredBanks(core.AtomID) []int { return []int{0} }

// MustRunMulti is RunMulti for known-good configurations.
func MustRunMulti(cfg MultiConfig, ws []workload.Workload) MultiResult {
	r, err := RunMulti(cfg, ws)
	if err != nil {
		panic(err)
	}
	return r
}
