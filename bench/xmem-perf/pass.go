package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	xm "xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/experiments/runner"
	"xmem/internal/kernel"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// mode selects how a pass runs its points.
type mode struct {
	// sample times one in sampleEvery Load/Store calls through a wrapper
	// Program.
	sample bool
	// flipObs toggles observation (epoch metrics and 1-in-spanEvery span
	// tracing) against the workload's own setting.
	flipObs bool
	// setupOnly returns from every workload's Run on entry: the point only
	// builds its machine.
	setupOnly bool
	// ref, when set, runs before every point and its host time is recorded
	// beside the point's.
	ref *refTask
}

// sampleEvery is the sampled-timing period; heapEvery (a multiple of it)
// the period of heap-size samples.
const (
	sampleEvery = 64
	heapEvery   = 1 << 16
)

// pointRun is one executed point.
type pointRun struct {
	res pointResult
	// setup is the host time between the simulator's entry and the first
	// workload's Run entry: machine construction.
	setup time.Duration
	// wall is the point's host time, set-up included; ref is the reference
	// task's time just before it (mode.ref only).
	wall, ref time.Duration
	// samples are the sampled Load/Store times in ns (mode.sample only).
	samples []int64
	// heapPeak is the largest heap-objects size sampled (mode.sample only).
	heapPeak uint64
}

// execute runs the point once under m.
func (p point) execute(m mode) (pointRun, error) {
	var run pointRun
	if m.ref != nil {
		run.ref = m.ref.run()
	}
	var entered atomic.Int64
	samplers := make([]*accessSampler, len(p.ws))
	ws := make([]workload.Workload, len(p.ws))
	start := time.Now()
	for i, w := range p.ws {
		body := w.Run
		if m.sample {
			s := newAccessSampler()
			samplers[i] = s
			inner := body
			body = func(prog workload.Program) { inner(sampledProgram{Program: prog, s: s}) }
		}
		w.Run = func(prog workload.Program) {
			entered.CompareAndSwap(0, int64(time.Since(start)))
			if !m.setupOnly {
				body(prog)
			}
		}
		ws[i] = w
	}
	if m.flipObs {
		p.cfg.Metrics = !p.cfg.Metrics
		if p.cfg.SpanSample == 0 {
			p.cfg.SpanSample = spanEvery
		} else {
			p.cfg.SpanSample = 0
		}
	}
	res, err := p.simulate(ws)
	run.wall = time.Since(start)
	run.res = res
	run.setup = time.Duration(entered.Load())
	for _, s := range samplers {
		if s != nil {
			run.samples = append(run.samples, s.ns...)
			run.heapPeak = max(run.heapPeak, s.heapPeak)
		}
	}
	return run, err
}

// pass is one execution of every point of a workload.
type pass struct {
	wall time.Duration
	// busy sums the points' wall times.
	busy time.Duration
	// mallocs and bytes are the host heap allocations made during the pass.
	mallocs, bytes uint64
	runs           []pointRun
	errs           []string
}

// runPass runs every point through the sweep runner, one at a time. (With
// one worker per vCPU of the shared 2-vCPU host, a point's time depended
// on what ran beside it: over the 20-second windows of two back-to-back
// 5-minute corun runs, the IQR/median of the throughput in host seconds
// was 55% with two workers and 7.7% with one.)
func runPass(name string, points []point, m mode) pass {
	pts := make([]runner.Point[pointRun], len(points))
	for i, p := range points {
		pts[i] = runner.Point[pointRun]{
			Key: p.key,
			Run: func(*runner.Ctx) (pointRun, error) { return p.execute(m) },
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	outs, err := runner.Run("xmem-perf/"+name, pts, runner.Options{Parallel: 1})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		// Only duplicate point keys fail a whole sweep: a bug here.
		panic(err)
	}
	ps := pass{
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		runs:    make([]pointRun, len(outs)),
		errs:    make([]string, len(outs)),
	}
	for i, o := range outs {
		ps.runs[i], ps.errs[i] = o.Result, o.Err
		ps.busy += o.Wall
	}
	return ps
}

// accesses is the number of simulated demand accesses the pass made.
func (ps pass) accesses() uint64 {
	var n uint64
	for _, r := range ps.runs {
		for _, c := range r.res.cores {
			n += c.L1D.DemandAccesses()
		}
	}
	return n
}

// hash is the FNV-64 digest of the point's simulated statistics: per core
// its cycles, instructions and CPU, cache and AMU counters, then the
// machine-wide DRAM counters. Observation output is excluded; it does not
// change what is simulated.
func (r pointResult) hash() uint64 {
	h := fnv.New64a()
	for _, c := range r.cores {
		fmt.Fprintf(h, "%d %d %+v %+v %+v %+v %+v\n",
			c.Cycles, c.Instructions, c.CPU, c.L1D, c.L2, c.L3, c.AMU)
	}
	fmt.Fprintf(h, "%+v\n", r.dram)
	return h.Sum64()
}

// checker is the output check. Every point must produce the same simulated
// statistics in every pass (and, where goldens apply, the committed ones),
// and its L1D must see exactly the demand accesses the workload issues when
// run on a null program.
type checker struct {
	points    []point
	want      []uint64
	known     []bool
	counts    [][]uint64
	attempted int
	failed    int
	problems  []string
}

func newChecker(points []point, counts [][]uint64, golden map[string]uint64) *checker {
	c := &checker{
		points: points,
		want:   make([]uint64, len(points)),
		known:  make([]bool, len(points)),
		counts: counts,
	}
	for i, p := range points {
		if golden == nil {
			continue
		}
		h, ok := golden[p.key]
		if !ok {
			c.fail(p.key, "no golden hash")
			continue
		}
		c.want[i], c.known[i] = h, true
	}
	return c
}

func (c *checker) fail(key, msg string) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, key+": "+msg)
	}
}

// check verifies every point of the pass.
func (c *checker) check(ps pass) {
	for i, p := range c.points {
		c.attempted++
		if msg := c.problem(i, ps); msg != "" {
			c.failed++
			c.fail(p.key, msg)
		}
	}
}

func (c *checker) problem(i int, ps pass) string {
	if ps.errs[i] != "" {
		return ps.errs[i]
	}
	res := ps.runs[i].res
	if len(res.cores) != len(c.counts[i]) {
		return fmt.Sprintf("%d core results for %d workloads", len(res.cores), len(c.counts[i]))
	}
	for k, r := range res.cores {
		if got, want := r.L1D.DemandAccesses(), c.counts[i][k]; got != want {
			return fmt.Sprintf("core %d: L1D saw %d demand accesses, the workload issues %d", k, got, want)
		}
	}
	h := res.hash()
	if !c.known[i] {
		c.want[i], c.known[i] = h, true
	} else if h != c.want[i] {
		return fmt.Sprintf("simulated output hash %016x, want %016x", h, c.want[i])
	}
	return ""
}

// hashes returns the checked hash of every point.
func (c *checker) hashes() map[string]uint64 {
	out := make(map[string]uint64, len(c.points))
	for i, p := range c.points {
		out[p.key] = c.want[i]
	}
	return out
}

// declaredAtoms is the load-time atom segment of w, as sim.Run decodes it.
func declaredAtoms(w workload.Workload) ([]xm.Atom, error) {
	lib := xm.NewLib(nil)
	if w.Declare != nil {
		w.Declare(lib)
	}
	return xm.DecodeSegmentLenient(lib.Segment())
}

// frames builds the OS frame allocator and placement policy cfg selects, as
// sim.Run does. mapping is the DRAM controller's address mapping.
func frames(cfg sim.Config, atoms []xm.Atom, mapping *dram.Mapping) (kernel.FrameAllocator, kernel.PlacementPolicy, error) {
	switch cfg.Alloc {
	case sim.AllocSequential, "":
		return kernel.NewSequentialAllocator(cfg.Geometry.CapacityBytes), nil, nil
	case sim.AllocRandom:
		return kernel.NewRandomizedAllocator(cfg.Geometry.CapacityBytes, cfg.AllocSeed), nil, nil
	case sim.AllocXMemPlacement:
		return kernel.NewBankedAllocator(mapping),
			kernel.NewXMemPlacement(atoms, cfg.Geometry.BanksPerChannel()), nil
	}
	return nil, nil, fmt.Errorf("unknown alloc policy %q", cfg.Alloc)
}

// nullProgram runs a workload without simulating its accesses: it counts
// the loads and stores and allocates through a real address space. Its
// XMemLib is either software-only or backed by an AMU over that address
// space, so the difference between the two is the cost of the Lib's
// hardware operations.
type nullProgram struct {
	as     *kernel.AddressSpace
	lib    *xm.Lib
	loads  uint64
	stores uint64
	// mallocs and mallocTime count and time the Malloc calls.
	mallocs    int
	mallocTime time.Duration
}

func newNullProgram(cfg sim.Config, w workload.Workload, withAMU bool) (*nullProgram, error) {
	atoms, err := declaredAtoms(w)
	if err != nil {
		return nil, err
	}
	mapping, err := dram.NewMapping(cfg.Scheme, cfg.Geometry)
	if err != nil {
		return nil, err
	}
	alloc, policy, err := frames(cfg, atoms, mapping)
	if err != nil {
		return nil, err
	}
	p := &nullProgram{as: kernel.NewAddressSpace(alloc, policy)}
	var amu *xm.AMU
	if withAMU {
		gat := xm.NewGAT()
		gat.LoadAtoms(atoms)
		amu = xm.NewAMU(p.as, cfg.AMU)
		amu.SetGAT(gat)
	}
	p.lib = xm.NewLibWithAtoms(amu, atoms)
	return p, nil
}

// Load implements workload.Program.
func (p *nullProgram) Load(int, mem.Addr) { p.loads++ }

// Store implements workload.Program.
func (p *nullProgram) Store(int, mem.Addr) { p.stores++ }

// Work implements workload.Program.
func (p *nullProgram) Work(int) {}

// Malloc implements workload.Program.
func (p *nullProgram) Malloc(name string, size uint64, atom xm.AtomID) mem.Addr {
	start := time.Now()
	va, err := p.as.Malloc(name, size, atom)
	p.mallocTime += time.Since(start)
	p.mallocs++
	if err != nil {
		panic(fmt.Sprintf("xmem-perf: %v", err))
	}
	return va
}

// Lib implements workload.Program.
func (p *nullProgram) Lib() *xm.Lib { return p.lib }

// nullPass is one run of every point's workloads on null programs.
type nullPass struct {
	// counts holds loads+stores per point per core.
	counts     [][]uint64
	loads      uint64
	stores     uint64
	wall       time.Duration
	bytes      uint64
	mallocs    int
	mallocTime time.Duration
}

// runNullPass runs every workload of every point on a null program, in the
// calling goroutine.
func runNullPass(points []point, withAMU bool) (nullPass, error) {
	var np nullPass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, pt := range points {
		counts := make([]uint64, len(pt.ws))
		for k, w := range pt.ws {
			prog, err := newNullProgram(pt.cfg, w, withAMU)
			if err != nil {
				return np, fmt.Errorf("%s: %w", pt.key, err)
			}
			start := time.Now()
			w.Run(prog)
			np.wall += time.Since(start)
			counts[k] = prog.loads + prog.stores
			np.loads += prog.loads
			np.stores += prog.stores
			np.mallocs += prog.mallocs
			np.mallocTime += prog.mallocTime
		}
		np.counts = append(np.counts, counts)
	}
	runtime.ReadMemStats(&after)
	np.bytes = after.TotalAlloc - before.TotalAlloc
	return np, nil
}

// accessSampler collects the sampled access times of one workload.
type accessSampler struct {
	n        uint64
	ns       []int64
	heap     []metrics.Sample
	heapPeak uint64
}

func newAccessSampler() *accessSampler {
	return &accessSampler{heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

// tick counts one access and reports whether to time it.
func (s *accessSampler) tick() bool {
	s.n++
	if s.n%heapEvery == 0 {
		metrics.Read(s.heap)
		if v := s.heap[0].Value; v.Kind() == metrics.KindUint64 {
			s.heapPeak = max(s.heapPeak, v.Uint64())
		}
	}
	return s.n%sampleEvery == 0
}

// sampledProgram times one in sampleEvery Load/Store calls of the machine
// it wraps.
type sampledProgram struct {
	workload.Program
	s *accessSampler
}

// Load implements workload.Program.
func (p sampledProgram) Load(site int, va mem.Addr) {
	if !p.s.tick() {
		p.Program.Load(site, va)
		return
	}
	start := time.Now()
	p.Program.Load(site, va)
	p.s.ns = append(p.s.ns, int64(time.Since(start)))
}

// Store implements workload.Program.
func (p sampledProgram) Store(site int, va mem.Addr) {
	if !p.s.tick() {
		p.Program.Store(site, va)
		return
	}
	start := time.Now()
	p.Program.Store(site, va)
	p.s.ns = append(p.s.ns, int64(time.Since(start)))
}
