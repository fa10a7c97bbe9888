package sim

import (
	"fmt"

	"xmem/internal/dram"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// MultiConfig describes a multi-core machine: per-core private hierarchies
// (the paper's Table 3 partitions the L3 per core) over one shared memory
// and one shared pool of physical frames, so co-runners contend for DRAM
// banks and bandwidth exactly as the paper's co-run scenarios do.
type MultiConfig struct {
	// Core is the per-core configuration (caches, prefetchers, XMem
	// flags). Its device and Hybrid fields configure the shared memory.
	Core Config
	// NUMA, when set, replaces the shared controller with a multi-node
	// memory: core i runs on node i mod Nodes, remote accesses pay the
	// interconnect penalty, and — with the "xmem" placement — each
	// process' pages land on the node its atoms' Home attributes name.
	// Every node is a device built from Core's device fields.
	NUMA *NUMAConfig
}

// NUMAConfig sizes the multi-node memory.
type NUMAConfig struct {
	// Nodes is the socket count (at least one).
	Nodes int
	// NodeBytes is each node's capacity (a power of two).
	NodeBytes uint64
	// Placement selects the OS policy: "interleave" (default) spreads
	// pages round-robin, "node0" models first-touch by an initializing
	// main thread (everything lands on node 0), and "xmem" uses the
	// atoms' Home attributes to co-locate data with its accessor.
	Placement string
}

// MultiResult aggregates a multi-programmed run.
type MultiResult struct {
	// Cores holds one result per workload; the DRAM stats in each are the
	// shared memory's machine-wide totals. With Config.Metrics each core
	// carries its own Metrics report, and with Config.SpanSample its own
	// spans. Each DRAM command is attributed, and gives a span its dram/nvm
	// stage, on the core whose Malloc took the command's frame; commands
	// in frames no core allocated count as core 0's unattributed ones.
	Cores []Result
	// Cycles is the finishing time of the slowest core.
	Cycles uint64
	// DRAM is the shared memory's final counters.
	DRAM dram.Stats
	// RemoteFraction is the share of memory accesses that crossed the
	// NUMA interconnect (0 on non-NUMA machines).
	RemoteFraction float64
}

// quantumCycles is the interleaving granularity of the deterministic
// co-run scheduler: the core furthest behind runs this many cycles before
// the scheduler picks again.
const quantumCycles = 500

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
	peers []*coreTask
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
		next.quantumEnd = next.cycle + quantumCycles
		return next.start
	}
	return t.finish
}

// run executes the core's workload to its finishing cycle and marks the
// core done. A panic in the workload is recovered and returned, so the
// core still hands the token on.
func (t *coreTask) run() (fault any) {
	defer func() {
		fault = recover()
		t.done = true
	}()
	t.m.w.Run(t.m)
	t.finalCycle = t.m.core.Finish()
	return nil
}

// RunMulti executes the workloads concurrently, one per core. Cores share
// the memory and its frame pool; everything else is private. Run is the
// one-core case.
//
// A lone core runs on the caller's goroutine. Several cores interleave
// deterministically, one goroutine's worth of execution at a time: the
// live core with the lowest local cycle runs one quantum, then hands the
// token to the next.
func RunMulti(cfg MultiConfig, ws []workload.Workload) (MultiResult, error) {
	if len(ws) == 0 {
		return MultiResult{}, fmt.Errorf("sim: no workloads")
	}
	side, err := buildMemory(&cfg, len(ws))
	if err != nil {
		return MultiResult{}, err
	}
	ms := make([]*Machine, len(ws))
	for i, w := range ws {
		atoms, err := declareAtoms(w)
		if err != nil {
			return MultiResult{}, err
		}
		policy, err := placement(&cfg, atoms, i)
		if err != nil {
			return MultiResult{}, err
		}
		if ms[i], err = buildMachine(&cfg.Core, w, atoms, side, i, policy); err != nil {
			return MultiResult{}, err
		}
	}

	if cfg.Core.Metrics || cfg.Core.SpanSample > 0 {
		// One observer for the shared memory: each command goes to the
		// core that owns its frame.
		side.mem.SetObserver(func(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
			core, _ := side.frames.owner(pa)
			ms[core].observeDRAM(pa, kind, rowHit, arrival, done)
		})
	}
	var cycles []uint64
	if len(ms) == 1 {
		m := ms[0]
		m.w.Run(m)
		cycles = []uint64{m.core.Finish()}
	} else {
		cycles = corun(ms)
	}
	return side.result(ms, cycles), nil
}

// corun runs the machines' workloads under the token-passing scheduler and
// returns each core's finishing cycle. A panic on a core's goroutine is
// recovered there, so the other cores run to completion; corun then
// re-raises the first one on the caller's goroutine.
func corun(ms []*Machine) []uint64 {
	allDone := make(chan token)
	tasks := make([]*coreTask, len(ms))
	for i, m := range ms {
		t := &coreTask{
			m:      m,
			start:  make(chan token),
			finish: allDone,
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
				t.quantumEnd = cycle + quantumCycles
				return
			}
			next.quantumEnd = next.cycle + quantumCycles
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
	// the shared structures at any moment, fault included. The body
	// follows the ownership-transfer protocol the noshare analyzer proves:
	// first use receives the token from the task's channel, last use
	// relinquishes it with a send.
	var fault any
	for _, t := range tasks {
		t := t
		go func() {
			<-t.start
			if p := t.run(); p != nil && fault == nil {
				fault = p
			}
			t.handoff() <- token{}
		}()
	}

	// Inject the token at the deterministic first pick (all cycles are 0,
	// so ties resolve to core 0) and wait for the last core to return it.
	first := tasks[0]
	first.quantumEnd = first.cycle + quantumCycles
	first.start <- token{}
	<-allDone
	if fault != nil {
		panic(fault)
	}
	cycles := make([]uint64, len(tasks))
	for i, t := range tasks {
		cycles[i] = t.finalCycle
	}
	return cycles
}

// MustRunMulti is RunMulti for known-good configurations.
func MustRunMulti(cfg MultiConfig, ws []workload.Workload) MultiResult {
	r, err := RunMulti(cfg, ws)
	if err != nil {
		panic(err)
	}
	return r
}
