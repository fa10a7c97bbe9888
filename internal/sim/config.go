// Package sim assembles the full simulated machine — core timing model,
// three-level cache hierarchy, prefetchers, AMU, OS address space, and DRAM
// — and runs workloads on it. Configurations mirror Table 3 of the paper,
// with a proportionally scaled "fast" preset for tests and benchmarks.
package sim

import (
	"xmem/internal/cache"
	xm "xmem/internal/core"
	"xmem/internal/cpu"
	"xmem/internal/dram"
)

// AllocPolicy selects the OS frame allocator.
type AllocPolicy string

// Frame allocation policies.
const (
	// AllocSequential hands out frames in address order.
	AllocSequential AllocPolicy = "sequential"
	// AllocRandom randomizes the VA→PA mapping (strengthened baseline,
	// §6.3).
	AllocRandom AllocPolicy = "random"
	// AllocXMemPlacement uses the bank-aware allocator driven by the
	// §6.2 placement algorithm.
	AllocXMemPlacement AllocPolicy = "xmem"
)

// Config describes a full machine.
type Config struct {
	// Core is the CPU timing model configuration.
	Core cpu.Config
	// L1D, L2, L3 are the cache levels (Table 3: 32 KB LRU, 128 KB DRRIP,
	// 1-8 MB DRRIP).
	L1D, L2, L3 cache.Config
	// Geometry, Timing, Scheme, IdealRBL and FCFS configure every memory
	// device: the plain DRAM controller, both hybrid tiers and each NUMA
	// node. A tier or node takes its own capacity in place of
	// Geometry.CapacityBytes, and the NVM tier keeps dram.NVMTiming.
	Geometry dram.Geometry
	Timing   dram.Timing
	// Scheme is the physical address-mapping scheme.
	Scheme string
	// IdealRBL makes every DRAM access a row hit (§6.4 upper bound).
	IdealRBL bool
	// FCFS disables the memory controller's row-hit-first reordering
	// (scheduler ablation).
	FCFS bool
	// Alloc picks the frame allocator of plain DRAM; AllocSeed seeds
	// AllocRandom.
	Alloc     AllocPolicy
	AllocSeed int64
	// StridePrefetch enables the baseline multi-stride L3 prefetcher;
	// StrideEntries/StrideDegree size it (0 = Table 3 defaults).
	StridePrefetch bool
	StrideEntries  int
	StrideDegree   int
	// XMemCache enables the §5.2 cache-pinning controller and the
	// XMem-guided prefetcher.
	XMemCache bool
	// XMemPrefetchOnly enables only the XMem-guided prefetcher without
	// pinning (the XMem-Pref design point of §5.4).
	XMemPrefetchOnly bool
	// XMemDegree is the XMem prefetcher degree (0 = 4).
	XMemDegree int
	// AMU sizes the Atom Management Unit structures.
	AMU xm.AMUConfig
	// CheckInvariants attaches a core.InvariantChecker to each core's
	// XMemLib: every operation cross-validates the AAM/AST/ALB/GAT and
	// audits the Atom lifecycle contract. Structural divergence and
	// invalid-ID ops panic; program-level misuse lands in
	// Result.InvariantWarnings. Diagnostic — adds per-op audit cost.
	CheckInvariants bool
	// Metrics enables the observability layer (internal/obs): an
	// epoch-sampled registry of every subsystem's counters plus per-atom
	// attribution of demand misses, row hits/misses, pinned evictions and
	// prefetch activity. Off by default; when off the hot path carries a
	// single nil check.
	Metrics bool
	// EpochCycles is the sampling period in core cycles (0 selects
	// obs.DefaultEpochCycles = 100k). Only meaningful with Metrics.
	EpochCycles uint64
	// OnEpoch, when set, is called at every epoch boundary — the CLI's
	// -progress heartbeat hangs off it. It does NOT require Metrics: a
	// machine with OnEpoch but no Metrics runs a registry-less sampler
	// that only detects boundaries (no snapshots, no attribution), so
	// progress reporting stays decoupled from the metrics machinery.
	OnEpoch func(EpochProgress)
	// SpanSample enables causal span tracing: one in every SpanSample
	// demand accesses is followed end-to-end (AMU → L1/L2/L3 → DRAM) with
	// per-layer outcomes and attribute-tied reason codes. 0 disables
	// tracing; disabled cost is one nil check per access. Tracing is
	// timing-neutral: span completion times are harvested from the memory
	// controller's futures without forcing them, so a traced run schedules
	// identically to an untraced one.
	SpanSample uint64
	// SpanBuffer caps the retained-span ring (0 = span.DefaultBuffer).
	// Older spans are overwritten once the ring is full.
	SpanBuffer int
	// ContextSwitchInterval, when nonzero, forces a context switch (ALB
	// flush + GAT/AST reload, §4.3/§4.4) every so many cycles, for
	// measuring XMem's context-switch sensitivity.
	ContextSwitchInterval uint64
	// Hybrid, when set, replaces DRAM with a two-tier DRAM+NVM memory
	// (the Table 1 hybrid-memory use case). Every device field above
	// applies to both tiers; Alloc applies only to plain DRAM, so here the
	// tier allocator takes over.
	Hybrid *HybridConfig
}

// HybridConfig sizes the two-tier memory.
type HybridConfig struct {
	// DRAMBytes is the fast-tier capacity; NVMBytes the capacity tier.
	DRAMBytes, NVMBytes uint64
	// XMemPlacement enables the atom-driven tier policy; otherwise the
	// allocator fills DRAM first, blind to semantics.
	XMemPlacement bool
}

// PaperConfig returns the Table 3 machine for a single core with the given
// L3 capacity: 3.6 GHz 4-wide OOO, 32 KB L1D (LRU), 128 KB L2 (DRRIP),
// DRRIP L3, multi-stride L3 prefetcher, DDR3-1066 with 2 channels.
func PaperConfig(l3Bytes uint64) Config {
	return Config{
		Core:           cpu.DefaultConfig(),
		L1D:            cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, Latency: 4, Policy: "lru"},
		L2:             cache.Config{Name: "L2", SizeBytes: 128 << 10, Ways: 8, Latency: 8, Policy: "drrip"},
		L3:             cache.Config{Name: "L3", SizeBytes: l3Bytes, Ways: 16, Latency: 27, Policy: "drrip"},
		Geometry:       dram.DefaultGeometry(),
		Timing:         dram.DefaultTiming(),
		Scheme:         "ro:ra:ba:co:ch",
		Alloc:          AllocSequential,
		StridePrefetch: true,
	}
}

// FastConfig returns a machine scaled down 8× (caches, DRAM capacity) so
// the full experiment suite runs quickly; latencies and organization are
// unchanged, so policy effects keep their shape.
func FastConfig(l3Bytes uint64) Config {
	cfg := PaperConfig(l3Bytes)
	cfg.L1D.SizeBytes = 8 << 10
	cfg.L2.SizeBytes = 32 << 10
	cfg.Geometry.CapacityBytes = 256 << 20
	return cfg
}

// WithUseCase1Bandwidth returns cfg with DRAM bandwidth set to the paper's
// per-core share (2.1 GB/s default; Figure 6 sweeps 2, 1, 0.5 GB/s).
func (c Config) WithUseCase1Bandwidth(bytesPerSec float64) Config {
	c.Timing = c.Timing.WithBandwidthPerCore(bytesPerSec, 1, c.Geometry.Channels)
	return c
}
