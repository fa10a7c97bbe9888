package sim

import (
	"runtime"
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// TestHotPathMachineAccess is the end-to-end allocation gate (part of `make
// alloc-gate`) on a warmed FastConfig machine with the XMem cache and the
// stride prefetcher on: a load that hits L1 allocates nothing, and over a
// stream that thrashes every level the only allocations are the DRAM
// controller's 16-slot Future chunks: one per 16 DRAM reads, plus one
// partial chunk per channel (writebacks allocate nothing).
func TestHotPathMachineAccess(t *testing.T) {
	const l3 = 64 << 10
	cfg := FastConfig(l3)
	cfg.Geometry.CapacityBytes = 16 << 20
	cfg.XMemCache = true
	if !cfg.StridePrefetch {
		t.Fatal("FastConfig no longer enables the stride prefetcher")
	}
	attrs := xm.Attributes{Pattern: xm.PatternRegular, StrideBytes: mem.LineBytes, Reuse: 200}
	const lines = 4 * l3 / mem.LineBytes
	var hitAllocs float64
	var mallocs, reads, strideIssued, xmemIssued uint64
	w := workload.Workload{
		Name:    "hotpath",
		Declare: func(lib *xm.Lib) { lib.CreateAtom("hot.buf", attrs) },
		Run: func(p workload.Program) {
			m := p.(*Machine)
			id := p.Lib().CreateAtom("hot.buf", attrs)
			size := uint64(lines * mem.LineBytes)
			buf := p.Malloc("buf", size, id)
			p.Lib().AtomMap(id, buf, size)
			p.Lib().AtomActivate(id)
			next := 0
			stream := func(n int) {
				for i := 0; i < n; i++ {
					p.Load(1, buf+mem.Addr(next*mem.LineBytes))
					if i%4 == 3 {
						p.Store(2, buf+mem.Addr(next*mem.LineBytes))
					}
					p.Work(2)
					next = (next + 1) % lines
				}
			}
			// Two passes bring every queue, ring and table to its
			// high-water size.
			stream(2 * lines)

			p.Load(3, buf)
			hitAllocs = testing.AllocsPerRun(1000, func() { p.Load(3, buf) })

			var ms runtime.MemStats
			m.ctl.DrainAll()
			st := m.ctl.Stats()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			stream(lines)
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - before
			m.ctl.DrainAll()
			end := m.ctl.Stats()
			reads = end.Reads - st.Reads
			strideIssued, xmemIssued = m.strider.Stats().Issued, m.xmemPf.Stats().Issued
		},
	}
	res := MustRun(cfg, w)
	if hitAllocs != 0 {
		t.Errorf("L1-hitting load allocates %v, want 0", hitAllocs)
	}
	if res.L3.ReadMisses == 0 || res.DRAM.Writes == 0 || strideIssued == 0 || xmemIssued == 0 {
		t.Fatalf("stream did not exercise the hierarchy: L3 read misses %d, DRAM writes %d, prefetches issued %d stride, %d XMem",
			res.L3.ReadMisses, res.DRAM.Writes, strideIssued, xmemIssued)
	}
	if reads == 0 || mallocs > reads/16+uint64(cfg.Geometry.Channels) {
		t.Errorf("thrashing stream: %d allocations for %d DRAM reads, want at most one per 16 reads plus one per channel", mallocs, reads)
	}
	t.Logf("thrashing stream: %d allocations, %d DRAM reads", mallocs, reads)
}

// TestHotPathSpanRecording bounds what span recording allocates on a warmed
// FastConfig machine that traces every access into a 16-span ring. Once the
// ring is full, an L1-hitting load allocates at most 3 objects, and the
// end-of-run spanDump of the 16 retained spans at most 3: sorting the spans
// and their stages allocates nothing, and no stage builds its level name.
func TestHotPathSpanRecording(t *testing.T) {
	cfg := FastConfig(64 << 10)
	cfg.SpanSample = 1
	cfg.SpanBuffer = 16
	var hitAllocs, dumpAllocs float64
	var retained int
	w := workload.Workload{
		Name: "hotpath-span",
		Run: func(p workload.Program) {
			m := p.(*Machine)
			buf := p.Malloc("buf", 4096, xm.InvalidAtom)
			for i := 0; i < 4*cfg.SpanBuffer; i++ {
				p.Load(1, buf+mem.Addr(i%64*mem.LineBytes))
			}
			hitAllocs = testing.AllocsPerRun(1000, func() { p.Load(1, buf) })
			dumpAllocs = testing.AllocsPerRun(100, func() { retained = len(m.spanDump().Spans) })
		},
	}
	MustRun(cfg, w)
	if retained != cfg.SpanBuffer {
		t.Fatalf("dump retained %d spans, want a full ring of %d", retained, cfg.SpanBuffer)
	}
	if hitAllocs > 3 {
		t.Errorf("traced L1-hitting load allocates %v objects, want at most 3", hitAllocs)
	}
	if dumpAllocs > 3 {
		t.Errorf("spanDump of %d spans allocates %v objects, want at most 3", retained, dumpAllocs)
	}
	t.Logf("traced L1 hit: %v allocations; spanDump of %d spans: %v", hitAllocs, retained, dumpAllocs)
}
