package sim

import (
	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/obs"
)

// EpochProgress is the per-epoch heartbeat handed to Config.OnEpoch.
type EpochProgress struct {
	// Epoch is the epoch index (cycle / EpochCycles).
	Epoch uint64
	// Cycle is the core cycle at the boundary.
	Cycle uint64
	// Instructions is the retired-instruction total so far.
	Instructions uint64
	// IPC is Instructions/Cycle so far.
	IPC float64
}

// enableMetrics builds the machine's observability state: the registry with
// every subsystem's counters, the per-atom attribution table, the latency
// histograms the probe feeds, and the epoch sampler. Called from
// buildMachine only when cfg.Metrics is set — a machine without metrics
// carries nil fields and one branch per access.
func (m *Machine) enableMetrics() {
	m.reg = obs.NewRegistry()
	m.attrib = obs.NewAtomTable()
	m.lat = &latencyState{}
	m.registerMetrics()
	m.sampler = obs.NewSampler(m.reg, m.cfg.EpochCycles, m.attrib)
}

// resolveAtom attributes a physical address to an atom: the AMU's dynamic
// mapping wins (most specific — e.g. the currently-mapped tile); addresses
// outside any mapped atom fall back to the atom Malloc tagged the frame
// with in the frame table (§4.1.2: the allocator knows each region's atom
// before first touch). The AMU peek is stats-neutral, so attribution never
// disturbs the modeled ALB/AAM counters.
//
//xmem:statsneutral
func (m *Machine) resolveAtom(pa mem.Addr) xm.AtomID {
	if id, ok := m.amu.Peek(pa); ok {
		return id
	}
	_, id := m.frames.owner(pa)
	return id
}

// sampleEpochsAt is the hot-path tick: called with an op's true issue cycle
// before the op executes (the caller has already checked m.sampler != nil),
// so exact-boundary issues attribute to the new epoch, not the old one.
func (m *Machine) sampleEpochsAt(now uint64) {
	epoch := m.sampler.Tick(now)
	if epoch < 0 || m.cfg.OnEpoch == nil {
		return
	}
	instr := m.core.Stats().Instructions
	p := EpochProgress{Epoch: uint64(epoch), Cycle: now, Instructions: instr}
	if now > 0 {
		p.IPC = float64(instr) / float64(now)
	}
	m.cfg.OnEpoch(p)
}

// metricsReport assembles the end-of-run Report; cycles is the final cycle
// count. Atom names come from the library, which knows runtime-created
// atoms (e.g. trace replays) as well as the declared segment.
func (m *Machine) metricsReport(cycles uint64) *obs.Report {
	m.sampler.Finish(cycles)
	for _, a := range m.lib.Atoms() {
		m.attrib.SetName(a.ID, a.Name)
	}
	rep := &obs.Report{
		Schema:      obs.SchemaVersion,
		Workload:    m.w.Name,
		EpochCycles: m.sampler.EpochCycles(),
		Counters:    m.reg.Names(),
		Samples:     m.sampler.Samples(),
		PerAtom:     m.attrib.Summaries(),
	}
	if m.lat != nil {
		rep.Latency = m.lat.report(m.levels, m.attrib.Name)
	}
	return rep
}

// registerMetrics registers every subsystem's counters under the
// layer.component.metric naming scheme. Sources are closures over the
// subsystems' own stats — sampling reads them only at epoch boundaries, so
// registration itself adds no hot-path cost.
func (m *Machine) registerMetrics() {
	r := m.reg

	r.Counter("cpu.core.instructions", func() uint64 { return m.core.Stats().Instructions })
	r.Counter("cpu.core.loads", func() uint64 { return m.core.Stats().Loads })
	r.Counter("cpu.core.stores", func() uint64 { return m.core.Stats().Stores })
	r.Counter("cpu.core.rob_stall_cycles", func() uint64 { return m.core.Stats().ROBStallCycles })
	r.Counter("cpu.core.lsq_stall_cycles", func() uint64 { return m.core.Stats().LSQStallCycles })

	for lvl, c := range [...]*cache.Cache{m.l1d, m.l2, m.l3} {
		prefix := "cache." + m.levels[lvl] + "."
		r.Counter(prefix+"demand_hits", func() uint64 { return c.Stats().Hits })
		r.Counter(prefix+"demand_misses", func() uint64 { return c.Stats().Misses })
		r.Counter(prefix+"read_misses", func() uint64 { return c.Stats().ReadMisses })
		r.Counter(prefix+"write_misses", func() uint64 { return c.Stats().WriteMisses })
		r.Counter(prefix+"writebacks", func() uint64 { return c.Stats().Writebacks })
		r.Counter(prefix+"evictions", func() uint64 { return c.Stats().Evictions })
	}
	// L3-only: prefetch and pinning activity concentrate there.
	l3 := "cache." + m.levels[l3Level] + "."
	r.Counter(l3+"prefetch_fills", func() uint64 { return m.l3.Stats().PrefetchFills })
	r.Counter(l3+"prefetch_useful", func() uint64 { return m.l3.Stats().PrefetchUseful })
	r.Counter(l3+"delayed_hits", func() uint64 { return m.l3.Stats().DelayedHits })
	r.Counter(l3+"pin_inserts", func() uint64 { return m.l3.Stats().PinInserts })
	r.Counter(l3+"pin_evictions", func() uint64 { return m.l3.Stats().PinEvictions })

	r.Counter("dram.ctl.reads", func() uint64 { return m.ctl.Stats().Reads })
	r.Counter("dram.ctl.writes", func() uint64 { return m.ctl.Stats().Writes })
	r.Counter("dram.ctl.demand_reads", func() uint64 { return m.ctl.Stats().DemandReads })
	r.Counter("dram.ctl.row_hits", func() uint64 { return m.ctl.Stats().RowHits })
	r.Counter("dram.ctl.row_empty", func() uint64 { return m.ctl.Stats().RowEmpty })
	r.Counter("dram.ctl.row_conflicts", func() uint64 { return m.ctl.Stats().RowConflicts })
	r.Counter("dram.ctl.bus_busy", func() uint64 { return m.ctl.Stats().BusBusy })
	r.Counter("dram.ctl.write_queue_hits", func() uint64 { return m.ctl.Stats().WriteQueueHits })

	r.Counter("core.amu.lookups", func() uint64 { return m.amu.Stats().Lookups })
	r.Counter("core.amu.aam_accesses", func() uint64 { return m.amu.Stats().AAMAccesses })
	r.Counter("core.amu.map_ops", func() uint64 { return m.amu.Stats().MapOps })
	r.Counter("core.amu.unmap_ops", func() uint64 { return m.amu.Stats().UnmapOps })
	r.Counter("core.amu.activate_ops", func() uint64 { return m.amu.Stats().ActivateOps })
	r.Counter("core.amu.deactivate_ops", func() uint64 { return m.amu.Stats().DeactivateOps })
	r.Counter("core.alb.hits", func() uint64 { h, _ := m.amu.ALB().Stats(); return h })
	r.Counter("core.alb.misses", func() uint64 { _, ms := m.amu.ALB().Stats(); return ms })
	r.Counter("core.lib.runtime_ops", func() uint64 { return m.lib.Stats().RuntimeOps })
	r.Counter("core.lib.instructions", func() uint64 { return m.lib.Stats().Instructions })
	r.Counter("core.lib.invalid_ops", func() uint64 { return m.lib.Stats().InvalidOps })

	if m.strider != nil {
		r.Counter("prefetch.stride.trained", func() uint64 { return m.strider.Stats().Trained })
		r.Counter("prefetch.stride.issued", func() uint64 { return m.strider.Stats().Issued })
	}
	if m.xmemPf != nil {
		r.Counter("prefetch.xmem.trained", func() uint64 { return m.xmemPf.Stats().Trained })
		r.Counter("prefetch.xmem.issued", func() uint64 { return m.xmemPf.Stats().Issued })
	}
	if m.pins != nil {
		r.Gauge("sim.pins.pinned_atoms", func() float64 { return float64(m.pins.pinned.Len()) })
	}
}
