package sim

import (
	"fmt"

	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/cpu"
	"xmem/internal/dram"
	"xmem/internal/kernel"
	"xmem/internal/mem"
	"xmem/internal/obs"
	"xmem/internal/obs/span"
	"xmem/internal/prefetch"
	"xmem/internal/workload"
)

// Result is everything a simulation run reports.
type Result struct {
	Workload     string
	Cycles       uint64
	Instructions uint64
	IPC          float64
	// L3MPKI is demand L3 misses per thousand instructions.
	L3MPKI float64
	CPU    cpu.Stats
	L1D    cache.Stats
	L2     cache.Stats
	L3     cache.Stats
	DRAM   dram.Stats
	AMU    xm.AMUStats
	Lib    xm.LibStats
	// ALBHitRate is the fraction of ATOM_LOOKUPs served by the ALB.
	ALBHitRate float64
	// TierDRAM and TierNVM carry per-tier counters on hybrid-memory
	// machines (nil otherwise).
	TierDRAM, TierNVM *dram.Stats
	// PinnedAtomsMax is the largest pinned-atom set seen (diagnostics).
	PinnedAtomsMax int
	// InvariantWarnings holds the lifecycle violations recorded by the
	// invariant checker (only when Config.CheckInvariants is set).
	InvariantWarnings []string
	// ContextSwitches counts forced context switches.
	ContextSwitches uint64
	// Metrics is the epoch-sampled time series and attribution report
	// (nil unless Config.Metrics). Its PerAtom table attributes hierarchy
	// events (L3 demand misses, DRAM row hits/misses, pinned evictions,
	// prefetches) to atoms, sorted by demand misses. Metrics.WriteFile
	// exports it.
	Metrics *obs.Report
	// Spans is the causal span trace: the retained sampled accesses with
	// per-layer outcomes and reason codes (nil unless Config.SpanSample).
	// Spans.WriteFile exports it.
	Spans *span.Dump
}

// Machine is one assembled single-core system executing one workload.
// It implements workload.Program.
//
// A Machine is not safe for concurrent use: the simulator is
// single-threaded per machine. Parallel experiment sweeps build one
// Machine per sweep point; nothing is shared between points.
type Machine struct {
	cfg Config
	w   workload.Workload

	core *cpu.Core
	l1d  *cache.Cache
	l2   *cache.Cache
	l3   *cache.Cache
	ctl  memorySystem
	as   *kernel.AddressSpace
	amu  *xm.AMU
	lib  *xm.Lib

	strider *prefetch.MultiStride
	xmemPf  *prefetch.XMemPrefetcher
	pins    *pinController

	// yield, when set, is called with the core's current cycle after
	// every instruction batch; the multi-core scheduler uses it to
	// interleave cores deterministically.
	yield func(cycle uint64)

	// Bandwidth monitor for XMem prefetch throttling (§5.1: XMem-guided
	// prefetching is memory-bandwidth-aware).
	bwLastBusy  uint64
	bwLastCycle uint64
	bwUtil      float64

	// Forced context-switch state (§4.4 sensitivity measurement).
	nextCtxSwitch uint64
	ctxSwitches   uint64

	// Observability state (nil unless Config.Metrics; the hot path checks
	// only `sampler != nil` — with Config.OnEpoch but no Metrics, sampler
	// is a registry-less boundary ticker and reg stays nil). lat carries
	// the latency histograms (with Metrics); spans the causal tracer (with
	// Config.SpanSample). The probe (probe.go) feeds attrib, lat and spans.
	reg     *obs.Registry
	sampler *obs.Sampler
	attrib  *obs.AtomTable
	lat     *latencyState
	spans   *spanState

	// index is this core's position on its machine; frames is the memory
	// side's frame table, where Malloc records the core's frames when
	// Metrics or spans are on.
	index  int
	frames *frameTable

	// tiers is the hybrid memory ctl holds, for per-tier counters and
	// labels (nil on other machines).
	tiers *dram.RegionMemory
}

// bwWindowCycles is the utilization-sampling window.
const bwWindowCycles = 4096

// bwThrottleUtil is the data-bus utilization beyond which XMem prefetches
// are dropped: with the bus saturated, prefetching cannot hide anything and
// only adds traffic.
const bwThrottleUtil = 0.93

// busUtilization updates and returns the recent per-channel data-bus
// utilization.
func (m *Machine) busUtilization() float64 {
	now := m.core.Now()
	if now-m.bwLastCycle >= bwWindowCycles {
		busy := m.ctl.Stats().BusBusy
		dc := now - m.bwLastCycle
		db := busy - m.bwLastBusy
		m.bwUtil = float64(db) / float64(dc*uint64(m.cfg.Geometry.Channels))
		m.bwLastBusy, m.bwLastCycle = busy, now
	}
	return m.bwUtil
}

// siteBase synthesizes PCs for workload access sites.
const siteBase = mem.Addr(0x400000)

func pcForSite(site int) mem.Addr { return siteBase + mem.Addr(site)*4 }

// declareAtoms performs the compile-time CREATE summarization and the OS'
// load-time decode.
func declareAtoms(w workload.Workload) ([]xm.Atom, error) {
	declLib := xm.NewLib(nil)
	if w.Declare != nil {
		w.Declare(declLib)
	}
	atoms, err := xm.DecodeSegmentLenient(declLib.Segment())
	if err != nil {
		return nil, fmt.Errorf("sim: atom segment: %w", err)
	}
	return atoms, nil
}

// buildMachine assembles core i's private hierarchy over the machine's
// shared memory side.
func buildMachine(cfg *Config, w workload.Workload, atoms []xm.Atom,
	side *memorySide, i int, policy kernel.PlacementPolicy) (*Machine, error) {

	gat := xm.NewGAT()
	gat.LoadAtoms(atoms)
	as := kernel.NewAddressSpace(side.alloc, policy)
	amu := xm.NewAMU(as, cfg.AMU)
	amu.SetGAT(gat)
	lib := xm.NewLibWithAtoms(amu, atoms)
	if cfg.CheckInvariants {
		lib.EnableInvariantChecks()
	}

	// Hierarchy: L1D -> L2 -> L3 -> memory.
	l3, err := cache.New(cfg.L3, side.lower(i))
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2, l3)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D, l2)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		cfg: *cfg, w: w, core: cpu.New(cfg.Core),
		l1d: l1d, l2: l2, l3: l3, ctl: side.mem, tiers: side.tiers,
		as: as, amu: amu, lib: lib, index: i, frames: &side.frames,
	}
	if cfg.StridePrefetch {
		m.strider = prefetch.NewMultiStride(cfg.StrideEntries, cfg.StrideDegree)
	}
	if cfg.XMemCache || cfg.XMemPrefetchOnly {
		m.xmemPf = prefetch.NewXMem(cfg.XMemDegree)
		m.xmemPf.SetPAT(xm.TranslatePrefetch(gat))
		amu.Subscribe(m.xmemPf)
		m.pins = newPinController(m, xm.TranslateCache(gat), cfg.XMemCache)
		amu.Subscribe(m.pins)
		if cfg.XMemCache {
			l3.SetClassifier(m.classifyL3)
		}
	}
	l3.SetObserver(m.trainL3)
	if cfg.Metrics {
		m.enableMetrics()
	} else if cfg.OnEpoch != nil {
		// Progress heartbeats without the metrics machinery: a
		// registry-less sampler only detects epoch boundaries.
		m.sampler = obs.NewSampler(nil, cfg.EpochCycles, nil)
	}
	if cfg.SpanSample > 0 {
		m.spans = &spanState{
			tr:       span.NewTracer(cfg.SpanSample, cfg.SpanBuffer),
			inflight: make(map[uint64]*span.Span),
		}
	}
	if cfg.Metrics || cfg.SpanSample > 0 {
		m.installProbe()
	}
	return m, nil
}

// result gathers this core's statistics. DRAM counters come from the
// memory, which is machine-wide when cores share it.
func (m *Machine) result(cycles uint64) Result {
	cpuStats := m.core.Stats()
	l3Stats := m.l3.Stats()
	libStats := m.lib.Stats()
	res := Result{
		Workload: m.w.Name,
		Cycles:   cycles,
		// The XMem library calls execute real instructions (§4.4); the
		// core model does not time them individually, so they are added
		// to the reported total here.
		Instructions: cpuStats.Instructions + libStats.Instructions,
		IPC:          cpuStats.IPC(),
		CPU:          cpuStats,
		L1D:          m.l1d.Stats(),
		L2:           m.l2.Stats(),
		L3:           l3Stats,
		DRAM:         m.ctl.Stats(),
		AMU:          m.amu.Stats(),
		Lib:          m.lib.Stats(),
		ALBHitRate:   m.amu.ALB().HitRate(),
	}
	if cpuStats.Instructions > 0 {
		res.L3MPKI = 1000 * float64(l3Stats.ReadMisses+l3Stats.WriteMisses) /
			float64(cpuStats.Instructions)
	}
	res.ContextSwitches = m.ctxSwitches
	if c := m.lib.Checker(); c != nil {
		res.InvariantWarnings = c.Warnings()
	}
	if m.pins != nil {
		res.PinnedAtomsMax = m.pins.maxPinned
	}
	if m.tiers != nil {
		d := m.tiers.Controller(tierDRAM).Stats()
		n := m.tiers.Controller(tierNVM).Stats()
		res.TierDRAM, res.TierNVM = &d, &n
	}
	if m.reg != nil {
		res.Metrics = m.metricsReport(cycles)
	}
	if m.spans != nil {
		res.Spans = m.spanDump()
	}
	return res
}

// Run builds the machine described by cfg and executes the workload on it:
// the one-core case of RunMulti.
func Run(cfg Config, w workload.Workload) (Result, error) {
	mr, err := RunMulti(MultiConfig{Core: cfg}, []workload.Workload{w})
	if err != nil {
		return Result{}, err
	}
	return mr.Cores[0], nil
}

// MustRun is Run for known-good configurations.
func MustRun(cfg Config, w workload.Workload) Result {
	r, err := Run(cfg, w)
	if err != nil {
		panic(err)
	}
	return r
}

// --- workload.Program implementation ---

// Load implements workload.Program.
func (m *Machine) Load(site int, va mem.Addr) { m.access(site, va, true) }

// Store implements workload.Program.
func (m *Machine) Store(site int, va mem.Addr) { m.access(site, va, false) }

func (m *Machine) access(site int, va mem.Addr, isLoad bool) {
	if iv := m.cfg.ContextSwitchInterval; iv > 0 && m.core.Now() >= m.nextCtxSwitch {
		// The process is switched out and back in: the ALB and PATs are
		// flushed and the GAT/AST pointers reloaded (§4.3). State-wise
		// the same process returns, so only the flush cost remains.
		m.amu.ContextSwitch(m.amu.GAT(), m.amu.AST())
		m.ctxSwitches++
		m.nextCtxSwitch = m.core.Now() + iv
	}
	pa, ok := m.as.Translate(va)
	if !ok {
		panic(fmt.Sprintf("sim: access to unmapped VA %#x (site %d); workloads must Malloc first", va, site))
	}
	kind := mem.Write
	if isLoad {
		kind = mem.Read
	}
	pc := pcForSite(site)
	sampled := m.spans != nil && m.spans.tr.Take()
	m.core.IssueMem(isLoad, func(at uint64) mem.Result {
		// Epoch samples are taken at the op's true issue cycle BEFORE the
		// op executes, so an access issuing exactly on an EpochCycles
		// multiple lands in the new epoch, not the boundary snapshot.
		if m.sampler != nil {
			m.sampleEpochsAt(at)
		}
		if sampled {
			m.spanBegin(kind, pa, pc, at)
		}
		r := m.l1d.Access(pa, kind, at, pc)
		if sampled {
			m.spans.curRes = r
		}
		return r
	})
	m.drainPrefetchers()
	if sampled {
		// The window stays open through drainPrefetchers so prefetch
		// issue/throttle decisions triggered by this access attach.
		m.spanFinish()
	}
	if m.yield != nil {
		m.yield(m.core.Now())
	}
}

// Work implements workload.Program.
func (m *Machine) Work(n int) {
	if m.sampler != nil {
		// Pre-op tick (see access): a batch starting on a boundary belongs
		// to the new epoch.
		m.sampleEpochsAt(m.core.Now())
	}
	m.core.Work(uint64(n))
	if m.yield != nil {
		m.yield(m.core.Now())
	}
}

// Malloc implements workload.Program.
func (m *Machine) Malloc(name string, size uint64, atom xm.AtomID) mem.Addr {
	va, err := m.as.Malloc(name, size, atom)
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	if m.attrib != nil || m.spans != nil {
		// Pages are mapped eagerly, so every frame is translatable here;
		// allocations never share a page (guard pages between them).
		for off := uint64(0); off < size; off += mem.PageBytes {
			if pa, ok := m.as.Translate(va + mem.Addr(off)); ok {
				m.frames.set(pa, m.index, atom)
			}
		}
	}
	return va
}

// Lib implements workload.Program.
func (m *Machine) Lib() *xm.Lib { return m.lib }

// --- hierarchy hooks ---

// trainL3 feeds L3 demand accesses to the prefetchers. It is the cache's
// Observer, not part of the probe: the prefetches it triggers change timing.
func (m *Machine) trainL3(pa, pc mem.Addr, at uint64, miss bool) {
	if m.strider != nil {
		m.strider.Observe(pa, pc, at, miss)
	}
	if m.xmemPf != nil {
		if id, ok := m.amu.Lookup(pa); ok {
			m.xmemPf.OnAccess(pa, id, at)
		}
	}
}

// classifyL3 is the L3's classifier on XMem-cache machines: pinned atoms'
// lines are pinned, and lines of atoms the cache PAT marks Bypass (expressed
// streaming data with no reuse) insert at low priority.
func (m *Machine) classifyL3(pa mem.Addr, kind mem.AccessKind) cache.Insertion {
	id, ok := m.amu.Lookup(pa)
	if !ok {
		return cache.Insertion{Atom: xm.InvalidAtom}
	}
	ins := cache.Insertion{Atom: id}
	if m.pins.pinned.Has(id) {
		ins.Pin = true
	} else if attr, _ := m.pins.pat.Lookup(id); attr.Bypass {
		ins.Pri = cache.InsertLow
	}
	return ins
}

func (m *Machine) drainPrefetchers() {
	if m.strider != nil {
		for _, r := range m.strider.Drain() {
			m.l3.Access(r.Addr, mem.Prefetch, r.At, r.PC)
		}
	}
	if m.xmemPf != nil {
		reqs := m.xmemPf.Drain()
		if m.busUtilization() < bwThrottleUtil {
			for _, r := range reqs {
				m.l3.Access(r.Addr, mem.Prefetch, r.At, r.PC)
			}
		} else if m.spans != nil {
			m.spanNoteThrottle(len(reqs))
		}
	}
}
