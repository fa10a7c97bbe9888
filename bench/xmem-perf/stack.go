package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/cpu"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
	"xmem/internal/prefetch"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// The replay stack is a single-core machine assembled from the layers'
// public constructors the way sim.Run assembles one: cpu → L1D → L2 → L3
// (training the stride prefetcher) → DRAM, with an AMU-backed XMemLib over
// the OS address space. A recorder in front of every level logs the
// requests that enter it, and the stack logs the cpu's instruction stream,
// the translated virtual addresses, the L3's prefetcher-training stream and
// the AMU's lookups and mapping broadcasts. Each log is then replayed into
// a fresh instance of its layer alone, with a constant-latency stub below,
// and the replay is timed as a whole: the layer's self time per request.
//
// On configurations without the XMem cache the stack reproduces sim.Run's
// statistics exactly (TestStackFidelity). The XMem cache's pinning
// classifier lives inside sim, so on XMem-cache configurations the stack's
// caches do not pin, and its XMem prefetcher treats every active, mapped
// pin candidate as pinned.

// siteBase and the bandwidth throttle constants mirror sim.Machine's.
const (
	siteBase       = mem.Addr(0x400000)
	bwWindowCycles = 4096
	bwThrottleUtil = 0.93
)

// stubLatency is the constant latency of the stub below a replayed layer.
const stubLatency = 20

// request is one logged request entering a level.
type request struct {
	pa, pc mem.Addr
	at     uint64
	kind   mem.AccessKind
}

// recorder logs the first limit requests it forwards and counts all of them.
type recorder struct {
	next  cache.Lower
	n     uint64
	limit int
	reqs  []request
}

// Access implements cache.Lower.
func (r *recorder) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	r.n++
	if len(r.reqs) < r.limit {
		r.reqs = append(r.reqs, request{pa: pa, pc: pc, at: at, kind: kind})
	}
	return r.next.Access(pa, kind, at, pc)
}

// observation is one demand access the L3 reports to its prefetchers.
type observation struct {
	pa, pc mem.Addr
	at     uint64
	miss   bool
}

// AMU log event kinds.
const (
	evLookup     = iota // lookup found no active atom
	evLookupHit         // lookup found atom id; the XMem prefetcher is told
	evMap               // mapping broadcast (side.ev)
	evActivate          // atom id activated
	evDeactivate        // atom id deactivated
	evPin               // the XMem prefetcher's pinned set became side.pinned
)

type amuEvent struct {
	pa   mem.Addr
	at   uint64
	id   xm.AtomID
	kind uint8
	side *amuSide
}

type amuSide struct {
	ev     xm.MapEvent
	pinned []xm.AtomID
}

// cpu op encoding: positive values are Work(n).
const (
	opLoad  = -1
	opStore = -2
)

// stack is the replay stack. It implements workload.Program.
type stack struct {
	cfg     sim.Config
	core    *cpu.Core
	as      *kernel.AddressSpace
	gat     *xm.GAT
	amu     *xm.AMU
	lib     *xm.Lib
	l1d     *cache.Cache
	l2      *cache.Cache
	l3      *cache.Cache
	ctl     *dram.Controller
	strider *prefetch.MultiStride
	xpf     *prefetch.XMemPrefetcher
	pat     *xm.CachePAT
	pinned  []xm.AtomID

	bwLastBusy, bwLastCycle uint64
	bwUtil                  float64

	// entry[i] records the requests entering L1D, L2, L3 and DRAM.
	entry [4]*recorder
	limit int
	// ops is the cpu's instruction stream and results the completion of
	// each memory op in it; vas the virtual addresses those ops translated.
	ops     []int32
	results []mem.Result
	vas     []mem.Addr
	memOps  uint64
	// observed is the L3 prefetcher-training stream; amuLog the AMU's
	// lookups and broadcasts in order.
	observed     []observation
	observations uint64
	amuLog       []amuEvent
	lookups      uint64
	lookupHits   uint64
}

// newStack builds the stack for cfg and the workload's declared atoms.
// limit caps every log.
func newStack(cfg sim.Config, w workload.Workload, limit int) (*stack, error) {
	atoms, err := declaredAtoms(w)
	if err != nil {
		return nil, err
	}
	ctl, err := dram.NewController(dram.Config{
		Geometry: cfg.Geometry, Timing: cfg.Timing, Scheme: cfg.Scheme,
		IdealRBL: cfg.IdealRBL, FCFS: cfg.FCFS,
	})
	if err != nil {
		return nil, err
	}
	alloc, policy, err := frames(cfg, atoms, ctl.Mapping())
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, core: cpu.New(cfg.Core), ctl: ctl, limit: limit}
	s.as = kernel.NewAddressSpace(alloc, policy)
	s.gat = xm.NewGAT()
	s.gat.LoadAtoms(atoms)
	s.amu = xm.NewAMU(s.as, cfg.AMU)
	s.amu.SetGAT(s.gat)
	s.lib = xm.NewLibWithAtoms(s.amu, atoms)

	s.entry[3] = &recorder{next: ctl, limit: limit}
	if s.l3, err = cache.New(cfg.L3, s.entry[3]); err != nil {
		return nil, err
	}
	s.entry[2] = &recorder{next: s.l3, limit: limit}
	if s.l2, err = cache.New(cfg.L2, s.entry[2]); err != nil {
		return nil, err
	}
	s.entry[1] = &recorder{next: s.l2, limit: limit}
	if s.l1d, err = cache.New(cfg.L1D, s.entry[1]); err != nil {
		return nil, err
	}
	s.entry[0] = &recorder{next: s.l1d, limit: limit}

	if cfg.StridePrefetch {
		s.strider = prefetch.NewMultiStride(cfg.StrideEntries, cfg.StrideDegree)
	}
	if cfg.XMemCache || cfg.XMemPrefetchOnly {
		s.xpf = prefetch.NewXMem(cfg.XMemDegree)
		s.xpf.SetPAT(xm.TranslatePrefetch(s.gat))
		s.pat = xm.TranslateCache(s.gat)
		s.amu.Subscribe(s.xpf)
		s.amu.Subscribe(s)
	}
	s.l3.SetObserver(s.observeL3)
	return s, nil
}

// run executes w on the stack and drains the machine, as sim.Run does.
func (s *stack) run(w workload.Workload) {
	w.Run(s)
	s.core.Finish()
	s.ctl.DrainAll()
}

// Load implements workload.Program.
func (s *stack) Load(site int, va mem.Addr) { s.access(site, va, true) }

// Store implements workload.Program.
func (s *stack) Store(site int, va mem.Addr) { s.access(site, va, false) }

// Work implements workload.Program.
func (s *stack) Work(n int) {
	if s.recording() {
		s.ops = append(s.ops, int32(n))
	}
	s.core.Work(uint64(n))
}

// Malloc implements workload.Program.
func (s *stack) Malloc(name string, size uint64, atom xm.AtomID) mem.Addr {
	va, err := s.as.Malloc(name, size, atom)
	if err != nil {
		panic(fmt.Sprintf("xmem-perf: %v", err))
	}
	return va
}

// Lib implements workload.Program.
func (s *stack) Lib() *xm.Lib { return s.lib }

// recording reports whether the cpu and translation logs are still open.
func (s *stack) recording() bool { return len(s.results) < s.limit }

func (s *stack) access(site int, va mem.Addr, isLoad bool) {
	pa, ok := s.as.Translate(va)
	if !ok {
		panic(fmt.Sprintf("xmem-perf: access to unmapped VA %#x (site %d)", va, site))
	}
	kind, op := mem.Write, int32(opStore)
	if isLoad {
		kind, op = mem.Read, opLoad
	}
	pc := siteBase + mem.Addr(site)*4
	s.memOps++
	rec := s.recording()
	if rec {
		s.ops = append(s.ops, op)
		s.vas = append(s.vas, va)
	}
	s.core.IssueMem(isLoad, func(at uint64) mem.Result {
		r := s.entry[0].Access(pa, kind, at, pc)
		if rec {
			s.results = append(s.results, r)
		}
		return r
	})
	s.drainPrefetchers()
}

func (s *stack) busUtilization() float64 {
	now := s.core.Now()
	if now-s.bwLastCycle >= bwWindowCycles {
		busy := s.ctl.Stats().BusBusy
		s.bwUtil = float64(busy-s.bwLastBusy) / float64((now-s.bwLastCycle)*uint64(s.cfg.Geometry.Channels))
		s.bwLastBusy, s.bwLastCycle = busy, now
	}
	return s.bwUtil
}

func (s *stack) drainPrefetchers() {
	if s.strider != nil {
		for _, r := range s.strider.Drain() {
			s.l3.Access(r.Addr, mem.Prefetch, r.At, r.PC)
		}
	}
	if s.xpf != nil {
		reqs := s.xpf.Drain()
		if s.busUtilization() < bwThrottleUtil {
			for _, r := range reqs {
				s.l3.Access(r.Addr, mem.Prefetch, r.At, r.PC)
			}
		}
	}
}

func (s *stack) observeL3(pa, pc mem.Addr, at uint64, miss bool) {
	s.observations++
	if len(s.observed) < s.limit {
		s.observed = append(s.observed, observation{pa: pa, pc: pc, at: at, miss: miss})
	}
	if s.strider != nil {
		s.strider.Observe(pa, pc, at, miss)
	}
	if s.xpf == nil {
		return
	}
	id, ok := s.amu.Lookup(pa)
	s.lookups++
	kind := uint8(evLookup)
	if ok {
		s.lookupHits++
		kind = evLookupHit
		s.xpf.OnAccess(pa, id, at)
	}
	s.logAMU(amuEvent{pa: pa, at: at, id: id, kind: kind})
}

// logAMU appends to the AMU log until it holds limit events.
func (s *stack) logAMU(e amuEvent) {
	if len(s.amuLog) < s.limit {
		s.amuLog = append(s.amuLog, e)
	}
}

// AtomMapping implements core.MappingListener (XMem configurations only).
func (s *stack) AtomMapping(ev xm.MapEvent) {
	s.logAMU(amuEvent{id: ev.ID, kind: evMap, side: &amuSide{ev: ev}})
	s.repin()
}

// AtomStatus implements core.MappingListener (XMem configurations only).
func (s *stack) AtomStatus(id xm.AtomID, active bool) {
	kind := uint8(evDeactivate)
	if active {
		kind = evActivate
	}
	s.logAMU(amuEvent{id: id, kind: kind})
	s.repin()
}

// repin is the stack's stand-in for sim's pinning controller: every active,
// mapped pin candidate counts as pinned for the XMem prefetcher.
func (s *stack) repin() {
	var ids []xm.AtomID
	for _, id := range s.amu.ActiveMappedAtoms() {
		if a, ok := s.pat.Lookup(id); ok && a.PinCandidate {
			ids = append(ids, id)
		}
	}
	if slices.Equal(ids, s.pinned) {
		return
	}
	s.pinned = ids
	s.xpf.SetPinned(ids)
	s.logAMU(amuEvent{kind: evPin, side: &amuSide{pinned: ids}})
}

// layerCost is the measured cost of one layer over a pass: the replayed
// requests' host time and heap allocations, and how many requests the
// layer served in total (replayed or not).
type layerCost struct {
	replayed uint64
	ns       float64
	allocs   uint64
	total    uint64
}

// perReq returns ns per replayed request.
func (c layerCost) perReq() float64 { return ratio(c.ns, float64(c.replayed)) }

// estimate is the layer's estimated host time over all its requests.
func (c layerCost) estimate() float64 { return c.perReq() * float64(c.total) }

func (c *layerCost) add(o layerCost) {
	c.replayed += o.replayed
	c.ns += o.ns
	c.allocs += o.allocs
	c.total += o.total
}

// timed runs f, which replays n requests of a layer serving total in all.
func timed(n int, total uint64, f func()) layerCost {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	ns := float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&after)
	return layerCost{replayed: uint64(n), ns: ns, allocs: after.Mallocs - before.Mallocs, total: total}
}

// Layer indices of stackCosts.
const (
	layerCPU = iota
	layerTranslate
	layerL1D
	layerL2
	layerL3
	layerDRAM
	layerStride
	layerXMemPf
	layerLookup
	numLayers
)

// stackCosts are the replayed layer costs and the stack's counters, summed
// over points.
type stackCosts struct {
	layers                   [numLayers]layerCost
	strideIssued, xmemIssued uint64
}

func (c *stackCosts) add(o stackCosts) {
	for i := range c.layers {
		c.layers[i].add(o.layers[i])
	}
	c.strideIssued += o.strideIssued
	c.xmemIssued += o.xmemIssued
}

// fixedLatency is the constant-latency stub below a replayed layer.
type fixedLatency uint64

// Access implements cache.Lower.
func (l fixedLatency) Access(_ mem.Addr, _ mem.AccessKind, at uint64, _ mem.Addr) mem.Result {
	return mem.Done(at + uint64(l))
}

// identity is the AMU's address translator for replays: logged mapping
// broadcasts already carry physical ranges.
type identity struct{}

// Translate implements core.AddressTranslator.
func (identity) Translate(pa mem.Addr) (mem.Addr, bool) { return pa, true }

// replay replays every log of the stack into a fresh instance of its layer.
func (s *stack) replay() stackCosts {
	var c stackCosts
	if s.strider != nil {
		c.strideIssued = s.strider.Stats().Issued
	}
	if s.xpf != nil {
		c.xmemIssued = s.xpf.Stats().Issued
	}

	done := make([]uint64, len(s.results))
	for i, r := range s.results {
		done[i] = r.Wait()
	}
	c.layers[layerCPU] = timed(len(done), s.memOps, func() {
		core := cpu.New(s.cfg.Core)
		next := 0
		for _, op := range s.ops {
			if op > 0 {
				core.Work(uint64(op))
				continue
			}
			at := done[next]
			next++
			core.IssueMem(op == opLoad, func(uint64) mem.Result { return mem.Done(at) })
		}
		core.Finish()
	})
	c.layers[layerTranslate] = timed(len(s.vas), s.memOps, func() {
		for _, va := range s.vas {
			s.as.Translate(va)
		}
	})
	for i, cfg := range []cache.Config{s.cfg.L1D, s.cfg.L2, s.cfg.L3} {
		reqs := s.entry[i].reqs
		c.layers[layerL1D+i] = timed(len(reqs), s.entry[i].n, func() {
			level := cache.MustNew(cfg, fixedLatency(stubLatency))
			for _, r := range reqs {
				level.Access(r.pa, r.kind, r.at, r.pc)
			}
		})
	}
	reqs := s.entry[3].reqs
	c.layers[layerDRAM] = timed(len(reqs), s.entry[3].n, func() {
		ctl := dram.MustController(dram.Config{
			Geometry: s.cfg.Geometry, Timing: s.cfg.Timing, Scheme: s.cfg.Scheme,
			IdealRBL: s.cfg.IdealRBL, FCFS: s.cfg.FCFS,
		})
		for _, r := range reqs {
			ctl.Access(r.pa, r.kind, r.at, r.pc)
		}
		ctl.DrainAll()
	})
	if s.strider != nil {
		c.layers[layerStride] = timed(len(s.observed), s.observations, func() {
			p := prefetch.NewMultiStride(s.cfg.StrideEntries, s.cfg.StrideDegree)
			for _, o := range s.observed {
				p.Observe(o.pa, o.pc, o.at, o.miss)
				p.Drain()
			}
		})
	}
	if s.xpf != nil {
		lookups, hits := 0, 0
		for _, e := range s.amuLog {
			switch e.kind {
			case evLookupHit:
				hits++
				lookups++
			case evLookup:
				lookups++
			}
		}
		c.layers[layerXMemPf] = timed(hits, s.lookupHits, s.replayXMemPrefetcher)
		c.layers[layerLookup] = timed(lookups, s.lookups, s.replayAMU)
	}
	return c
}

// replayXMemPrefetcher drives a fresh XMem prefetcher with the logged
// broadcasts, pinned sets and atom-resolved L3 accesses.
func (s *stack) replayXMemPrefetcher() {
	p := prefetch.NewXMem(s.cfg.XMemDegree)
	p.SetPAT(xm.TranslatePrefetch(s.gat))
	for _, e := range s.amuLog {
		switch e.kind {
		case evLookupHit:
			p.OnAccess(e.pa, e.id, e.at)
			p.Drain()
		case evMap:
			p.AtomMapping(e.side.ev)
		case evActivate, evDeactivate:
			p.AtomStatus(e.id, e.kind == evActivate)
		case evPin:
			p.SetPinned(e.side.pinned)
		}
	}
}

// replayAMU drives a fresh AMU with the logged mappings, status changes and
// lookups.
func (s *stack) replayAMU() {
	u := xm.NewAMU(identity{}, s.cfg.AMU)
	u.SetGAT(s.gat)
	for _, e := range s.amuLog {
		switch e.kind {
		case evLookup, evLookupHit:
			u.Lookup(e.pa)
		case evMap:
			for _, r := range e.side.ev.Ranges {
				if e.side.ev.Unmap {
					u.ExecUnmap(e.id, r.Base, r.Size)
				} else {
					u.ExecMap(e.id, r.Base, r.Size)
				}
			}
		case evActivate:
			u.ExecActivate(e.id)
		case evDeactivate:
			u.ExecDeactivate(e.id)
		}
	}
}
