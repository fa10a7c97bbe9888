package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// stackRequests caps the requests each replay-stack log holds per pass;
// the cap is shared evenly among the pass's point workloads.
const stackRequests = 1 << 21

// traceRun is the per-layer (-trace) run: every metric comes from re-running
// the points traced in the ways described in README.md. soft is the
// software-only null pass main already made.
func traceRun(w benchWorkload, points []point, soft nullPass, chk *checker) ([]metric, error) {
	hard, err := runNullPass(points, true)
	if err != nil {
		return nil, err
	}

	chk.check(runPass(w.name, points, mode{})) // warm-up
	runtime.GC()
	rt0 := readRuntime()
	plain := runPass(w.name, points, mode{})
	rt1 := readRuntime()
	chk.check(plain)
	sampled := runPass(w.name, points, mode{sample: true})
	chk.check(sampled)
	// Observation toggled, in A-B-B-A order against two untraced passes so
	// that a steady drift in host speed cancels out of the overhead.
	var flipped [2]pass
	for i := range flipped {
		flipped[i] = runPass(w.name, points, mode{flipObs: true})
		chk.check(flipped[i])
	}
	plain2 := runPass(w.name, points, mode{})
	chk.check(plain2)

	var costs stackCosts
	var runs int
	for _, p := range points {
		runs += len(p.ws)
	}
	for _, p := range points {
		for _, wl := range p.ws {
			s, err := newStack(p.cfg, wl, stackRequests/runs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.key, err)
			}
			s.run(wl)
			costs.add(s.replay())
		}
	}

	acc := float64(soft.loads + soft.stores)
	perAccess := func(v float64) float64 { return ratio(v, acc) }
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name: name, unit: unit, value: v}) }
	layer := func(name string, c layerCost) {
		add(name+".self_ns", "ns", c.perReq())
		add(name+".reqs", "count", float64(c.total))
		add(name+".allocs_per_req", "count", ratio(float64(c.allocs), float64(c.replayed)))
	}
	m := totals(plain)

	add("workload.gen_ns_per_access", "ns", perAccess(float64(soft.wall-soft.mallocTime)))
	add("workload.accesses", "count", acc)
	add("workload.store_frac", "ratio", perAccess(float64(soft.stores)))

	add("kernel.malloc_us", "us", ratio(float64(soft.mallocTime.Microseconds()), float64(soft.mallocs)))
	add("kernel.translate_ns", "ns", costs.layers[layerTranslate].perReq())

	add("core.lib_ns_per_access", "ns", perAccess(float64(hard.wall-soft.wall)))
	add("core.lib_bytes_per_access", "B", perAccess(float64(hard.bytes)-float64(soft.bytes)))
	add("core.lookup_ns", "ns", costs.layers[layerLookup].perReq())
	add("core.alb_hit_rate", "ratio", ratio(float64(m.lookups-m.aamAccesses), float64(m.lookups)))

	cpuCost := costs.layers[layerCPU]
	add("cpu.issue_ns", "ns", cpuCost.perReq())
	add("cpu.allocs_per_access", "count", ratio(float64(cpuCost.allocs), float64(cpuCost.replayed)))

	for i, name := range []string{"l1d", "l2", "l3"} {
		layer("cache."+name, costs.layers[layerL1D+i])
		add("cache."+name+".miss_rate", "ratio", ratio(float64(m.misses[i]), float64(m.demand[i])))
	}
	add("cache.l3.prefetch_useful_ratio", "ratio", ratio(float64(m.pfUseful), float64(m.pfFills)))

	add("prefetch.stride.observe_ns", "ns", costs.layers[layerStride].perReq())
	add("prefetch.stride.issued", "count", float64(costs.strideIssued))
	add("prefetch.xmem.access_ns", "ns", costs.layers[layerXMemPf].perReq())
	add("prefetch.xmem.issued", "count", float64(costs.xmemIssued))

	layer("dram", costs.layers[layerDRAM])
	add("dram.row_hit_rate", "ratio", ratio(float64(m.rowHits), float64(m.rowCommands)))
	add("dram.read_latency_cycles", "cycles", ratio(float64(m.readLatency), float64(m.demandReads)))

	var samples []int64
	var heapPeak uint64
	for _, r := range sampled.runs {
		samples = append(samples, r.samples...)
		heapPeak = max(heapPeak, r.heapPeak)
	}
	slices.Sort(samples)
	add("sim.access_ns_p50", "ns", percentile(samples, 50))
	add("sim.access_ns_p99", "ns", percentile(samples, 99))
	add("sim.clock_ns", "ns", clockCost())
	// The layers' host time: the workload generator and OS (the null
	// pass), the Lib's AMU operations (AMU-backed minus software-only null
	// pass), and every replayed layer's estimate over all its requests.
	layerNS := float64(hard.wall.Nanoseconds())
	for _, c := range costs.layers {
		layerNS += c.estimate()
	}
	e2eNS := float64(plain.busy.Nanoseconds())
	add("sim.residual_ns_per_access", "ns", perAccess(e2eNS-layerNS))
	add("sim.closure_ratio", "ratio", ratio(layerNS, e2eNS))

	add("runner.busy_frac", "ratio", ratio(float64(plain.busy), float64(plain.wall)))

	on, off := flipped, [2]pass{plain, plain2}
	if points[0].cfg.Metrics {
		on, off = off, on
	}
	onBusy, offBusy := on[0].busy+on[1].busy, off[0].busy+off[1].busy
	add("obs.overhead_frac", "ratio", ratio(float64(onBusy-offBusy), float64(offBusy)))
	add("obs.spans", "count", float64(totals(on[0]).spans))

	add("runtime.gc_cpu_frac", "ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.gcCPU-rt0.gcCPU+rt1.userCPU-rt0.userCPU))
	add("runtime.gc_cycles", "count", float64(rt1.gcCycles-rt0.gcCycles))
	add("runtime.heap_peak_mb", "MB", float64(heapPeak)/(1<<20))
	add("runtime.max_rss_mb", "MB", maxRSSMB())

	add("model.cycles", "cycles", float64(m.cycles))
	add("model.ipc", "ratio", ratio(float64(m.instructions), float64(m.cycles)))
	add("model.l3_mpki", "count", ratio(1000*float64(m.misses[2]), float64(m.cpuInstructions)))
	return ms, nil
}

// passTotals sums a pass's simulated statistics over points and cores.
type passTotals struct {
	cycles, instructions, cpuInstructions uint64
	demand, misses                        [3]uint64
	pfUseful, pfFills                     uint64
	lookups, aamAccesses                  uint64
	rowHits, rowCommands                  uint64
	readLatency, demandReads              uint64
	spans                                 uint64
}

func totals(ps pass) passTotals {
	var t passTotals
	for _, r := range ps.runs {
		for _, c := range r.res.cores {
			t.cycles += c.Cycles
			t.instructions += c.Instructions
			t.cpuInstructions += c.CPU.Instructions
			for i, s := range [...]struct{ d, m uint64 }{
				{c.L1D.DemandAccesses(), c.L1D.ReadMisses + c.L1D.WriteMisses},
				{c.L2.DemandAccesses(), c.L2.ReadMisses + c.L2.WriteMisses},
				{c.L3.DemandAccesses(), c.L3.ReadMisses + c.L3.WriteMisses},
			} {
				t.demand[i] += s.d
				t.misses[i] += s.m
			}
			t.pfUseful += c.L3.PrefetchUseful
			t.pfFills += c.L3.PrefetchFills
			t.lookups += c.AMU.Lookups
			t.aamAccesses += c.AMU.AAMAccesses
			if c.Spans != nil {
				t.spans += c.Spans.Published
			}
		}
		d := r.res.dram
		t.rowHits += d.RowHits
		t.rowCommands += d.RowHits + d.RowEmpty + d.RowConflicts
		t.readLatency += d.DemandReadLatencySum
		t.demandReads += d.DemandReads
	}
	return t
}

// runtimeStats are the Go runtime's cumulative GC and CPU counters.
type runtimeStats struct {
	gcCPU, userCPU float64
	gcCycles       uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var r runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.userCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[2].Value.Uint64()
	}
	return r
}

// clockCost is the host cost in ns of the time.Now/time.Since pair that
// times one sampled access; every sample includes it.
func clockCost() float64 {
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the p-th percentile of sorted (nearest rank).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)))
	return float64(sorted[min(i, len(sorted)-1)])
}
