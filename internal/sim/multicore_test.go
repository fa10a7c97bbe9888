package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/experiments/runner"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

func multiConfig() MultiConfig {
	return MultiConfig{Core: testConfig()}
}

// corunWorkloads is a contended co-run mix: every core streams through a
// buffer several times larger than the L3, so all of them miss to the
// shared controller continuously.
func corunWorkloads(n int) []workload.Workload {
	ws := make([]workload.Workload, n)
	big := 3 * (256 << 10) / 64
	for i := range ws {
		ws[i] = streamWorkload(big+i*64, 2)
	}
	return ws
}

// multiDigest is an FNV-64a digest of a co-run's timing and memory-system
// state: machine and per-core cycles, every core's L1D/L2/L3 counters, the
// shared DRAM counters (latency histogram included) and the NUMA remote
// fraction.
func multiDigest(r MultiResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d remote=%v\n", r.Cycles, r.RemoteFraction)
	for i, c := range r.Cores {
		fmt.Fprintf(h, "core%d cycles=%d\nL1D=%+v\nL2=%+v\nL3=%+v\n", i, c.Cycles, c.L1D, c.L2, c.L3)
	}
	fmt.Fprintf(h, "DRAM=%+v\n", r.DRAM)
	return fmt.Sprintf("%016x", h.Sum64())
}

// multiGolden is one co-run TestRunMultiGolden pins: corunWorkloads(3) on
// the machine cfg builds, and the multiDigest of its result.
type multiGolden struct {
	name   string
	cfg    func() MultiConfig
	digest string
}

// multiGoldens are three shared-DRAM co-runs (one per frame allocator) and
// three NUMA co-runs (one per placement policy).
func multiGoldens() []multiGolden {
	dramRun := func(alloc AllocPolicy) func() MultiConfig {
		return func() MultiConfig {
			cfg := multiConfig()
			cfg.Core.Alloc = alloc
			cfg.Core.AllocSeed = 7
			cfg.Core.XMemCache = alloc == AllocXMemPlacement
			return cfg
		}
	}
	numaRun := func(placement string) func() MultiConfig {
		return func() MultiConfig {
			cfg := multiConfig()
			cfg.NUMA = &NUMAConfig{Nodes: 2, NodeBytes: 64 << 20, Placement: placement}
			return cfg
		}
	}
	return []multiGolden{
		{"dram/sequential", dramRun(AllocSequential), "e036827c42dfcbe0"},
		{"dram/random", dramRun(AllocRandom), "7dfc837d767bc222"},
		{"dram/xmem", dramRun(AllocXMemPlacement), "810682bebc3cf406"},
		{"numa/interleave", numaRun("interleave"), "209c8c193f8fdc45"},
		{"numa/node0", numaRun("node0"), "9821e2376e1aee8a"},
		{"numa/xmem", numaRun("xmem"), "c96eafc72f54a8b9"},
	}
}

// TestRunMultiGolden pins the serial scheduler's output byte for byte on
// the multiGoldens co-runs. A refactor of the multicore path must leave
// every digest unchanged; a deliberate modelling change re-records them and
// explains the moved numbers.
func TestRunMultiGolden(t *testing.T) {
	ws := corunWorkloads(3)
	for _, g := range multiGoldens() {
		if got := multiDigest(MustRunMulti(g.cfg(), ws)); got != g.digest {
			t.Errorf("%s: digest %s, want %s", g.name, got, g.digest)
		}
	}
}

// TestRunMultiObservation: with metrics and spans on, the shared memory's
// one observer hands every DRAM command of a co-run to exactly one core.
// On each golden co-run, observation leaves the digest unchanged, the
// cores' per-atom row hits and row misses add up to the memory's own
// counters, and some span carries a dram stage.
func TestRunMultiObservation(t *testing.T) {
	ws := corunWorkloads(3)
	for _, g := range multiGoldens() {
		cfg := g.cfg()
		cfg.Core.Metrics = true
		cfg.Core.SpanSample = 50
		r := MustRunMulti(cfg, ws)
		if got := multiDigest(r); got != g.digest {
			t.Errorf("%s: observed digest %s, want %s", g.name, got, g.digest)
		}
		var hits, misses uint64
		stages := 0
		for _, c := range r.Cores {
			for _, a := range c.Metrics.PerAtom {
				hits += a.RowHits
				misses += a.RowMisses
			}
			stages += dramStages(c.Spans)
		}
		if d := r.DRAM; hits != d.RowHits || misses != d.RowEmpty+d.RowConflicts {
			t.Errorf("%s: per-atom row hits %d, misses %d; memory %d hits, %d misses",
				g.name, hits, misses, d.RowHits, d.RowEmpty+d.RowConflicts)
		}
		if stages == 0 {
			t.Errorf("%s: no span carries a dram stage", g.name)
		}
	}
}

// TestRunMultiNUMA: a two-node interleaved co-run repeats exactly and
// sends some, but not all, of its traffic across the interconnect.
func TestRunMultiNUMA(t *testing.T) {
	cfg := multiConfig()
	cfg.NUMA = &NUMAConfig{Nodes: 2, NodeBytes: 64 << 20, Placement: "interleave"}
	ws := []workload.Workload{streamWorkload(2048, 2), streamWorkload(2048, 2)}
	r1 := MustRunMulti(cfg, ws)
	r2 := MustRunMulti(cfg, ws)
	if multiDigest(r1) != multiDigest(r2) {
		t.Fatalf("NUMA co-run nondeterministic: %d/%f vs %d/%f",
			r1.Cycles, r1.RemoteFraction, r2.Cycles, r2.RemoteFraction)
	}
	if r1.RemoteFraction <= 0 || r1.RemoteFraction >= 1 {
		t.Errorf("interleave placement remote fraction = %f, want in (0,1)", r1.RemoteFraction)
	}
}

// TestRunMultiAllocPolicies: every frame-allocation policy serves a shared
// co-run.
func TestRunMultiAllocPolicies(t *testing.T) {
	for _, alloc := range []AllocPolicy{AllocSequential, AllocRandom, AllocXMemPlacement} {
		cfg := multiConfig()
		cfg.Core.Alloc = alloc
		cfg.Core.AllocSeed = 7
		r := MustRunMulti(cfg, corunWorkloads(2))
		if r.Cycles == 0 || r.DRAM.Reads == 0 {
			t.Errorf("alloc=%s: empty result", alloc)
		}
	}
}

// TestRunMultiOneCoreEqualsRun: Run is the one-core case of RunMulti, so
// a one-core RunMulti returns the same Result, observation included, on a
// baseline, an XMem-cache and an XMem-placed hybrid machine.
func TestRunMultiOneCoreEqualsRun(t *testing.T) {
	// Cold read-only data allocated before hot read-write data: first
	// touch fills the small DRAM tier with the wrong structure.
	tiers := workload.Synthetic(workload.SynthSpec{
		Name: "tiers", Accesses: 20000, WorkPer: 4,
		Structs: []workload.StructSpec{
			{Name: "input", SizeBytes: 512 << 10, Pattern: xm.PatternRegular,
				StrideBytes: mem.LineBytes, Intensity: 60, RW: xm.ReadOnly},
			{Name: "state", SizeBytes: 256 << 10, Pattern: xm.PatternRegular,
				StrideBytes: mem.LineBytes, Intensity: 200, RW: xm.ReadWrite, WritePct: 50},
		},
	})
	observed := func(cfg Config) Config {
		cfg.Metrics = true
		cfg.EpochCycles = 50_000
		cfg.SpanSample = 20
		return cfg
	}
	xmemCfg := testConfig()
	xmemCfg.XMemCache = true
	hybridCfg := testConfig()
	hybridCfg.Hybrid = &HybridConfig{DRAMBytes: 256 << 10, NVMBytes: 4 << 20, XMemPlacement: true}
	cases := []struct {
		name string
		cfg  Config
		w    workload.Workload
	}{
		{"baseline", testConfig(), streamWorkload(2048, 2)},
		{"xmem", xmemCfg, gemmThrash()},
		{"hybrid-xmem", hybridCfg, tiers},
	}
	for _, c := range cases {
		cfg := observed(c.cfg)
		solo := MustRun(cfg, c.w)
		multi := MustRunMulti(MultiConfig{Core: cfg}, []workload.Workload{c.w})
		if len(multi.Cores) != 1 {
			t.Fatalf("%s: %d cores", c.name, len(multi.Cores))
		}
		if !reflect.DeepEqual(solo, multi.Cores[0]) {
			t.Errorf("%s: one-core RunMulti differs from Run: %d vs %d cycles, %d vs %d DRAM reads",
				c.name, multi.Cores[0].Cycles, solo.Cycles, multi.Cores[0].DRAM.Reads, solo.DRAM.Reads)
		}
		if multi.Cycles != solo.Cycles || !reflect.DeepEqual(multi.DRAM, solo.DRAM) {
			t.Errorf("%s: machine cycles %d, DRAM %+v; Run %d, %+v", c.name, multi.Cycles, multi.DRAM, solo.Cycles, solo.DRAM)
		}
	}
}

// TestRunMultiCoreFaultIsRecoverable: a core that accesses an unmapped VA
// does not kill the process from its goroutine. The other core runs to
// completion and RunMulti re-raises the panic on its caller, where the
// sweep runner records it as the point's error.
func TestRunMultiCoreFaultIsRecoverable(t *testing.T) {
	faulty := workload.Workload{
		Name: "faulty",
		Run: func(p workload.Program) {
			buf := p.Malloc("buf", 64<<10, xm.InvalidAtom)
			for i := 0; i < 1024; i++ {
				p.Load(1, buf+mem.Addr(i%1024*mem.LineBytes))
				p.Work(2)
			}
			p.Load(2, 0x10)
		},
	}
	outs, err := runner.Run("corun-fault", []runner.Point[MultiResult]{{
		Key: "good+faulty",
		Run: func(*runner.Ctx) (MultiResult, error) {
			return RunMulti(multiConfig(), []workload.Workload{streamWorkload(2048, 2), faulty})
		},
	}}, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := "panic: sim: access to unmapped VA 0x10"; !strings.HasPrefix(outs[0].Err, want) {
		t.Fatalf("outcome error %q, want prefix %q", outs[0].Err, want)
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	ws := []workload.Workload{streamWorkload(2048, 2), streamWorkload(1024, 3)}
	r1 := MustRunMulti(multiConfig(), ws)
	r2 := MustRunMulti(multiConfig(), ws)
	if r1.Cycles != r2.Cycles {
		t.Fatalf("nondeterministic multi-core run: %d vs %d", r1.Cycles, r2.Cycles)
	}
	for i := range r1.Cores {
		if r1.Cores[i].Cycles != r2.Cores[i].Cycles {
			t.Fatalf("core %d nondeterministic: %d vs %d", i, r1.Cores[i].Cycles, r2.Cores[i].Cycles)
		}
	}
}

func TestRunMultiContentionSlowsCores(t *testing.T) {
	// Two memory-hungry co-runners share the controller: each must finish
	// later than it would alone.
	big := 3 * (256 << 10) / 64
	w := streamWorkload(big, 2)
	solo := MustRun(testConfig(), w)
	multi := MustRunMulti(multiConfig(), []workload.Workload{w, w})
	for i, c := range multi.Cores {
		if c.Cycles <= solo.Cycles {
			t.Errorf("core %d: %d cycles with a co-runner <= %d solo; no DRAM contention modelled",
				i, c.Cycles, solo.Cycles)
		}
	}
	// Shared DRAM served both cores.
	if multi.DRAM.Reads < 2*solo.DRAM.Reads/3*2/2 {
		t.Errorf("shared DRAM reads = %d, solo = %d", multi.DRAM.Reads, solo.DRAM.Reads)
	}
}

func TestRunMultiAsymmetricFinish(t *testing.T) {
	short := streamWorkload(256, 1)
	long := streamWorkload(4096, 3)
	multi := MustRunMulti(multiConfig(), []workload.Workload{short, long})
	if multi.Cores[0].Cycles >= multi.Cores[1].Cycles {
		t.Errorf("short workload (%d) finished after long (%d)",
			multi.Cores[0].Cycles, multi.Cores[1].Cycles)
	}
	if multi.Cycles != multi.Cores[1].Cycles {
		t.Errorf("machine cycles %d != slowest core %d", multi.Cycles, multi.Cores[1].Cycles)
	}
}

func TestRunMultiErrors(t *testing.T) {
	if _, err := RunMulti(multiConfig(), nil); err == nil {
		t.Error("empty workload list accepted")
	}
	bad := multiConfig()
	bad.Core.Alloc = "bogus"
	if _, err := RunMulti(bad, []workload.Workload{streamWorkload(8, 1)}); err == nil {
		t.Error("bad alloc accepted")
	}
}

func TestRunMultiXMemPerCore(t *testing.T) {
	cfg := multiConfig()
	cfg.Core.XMemCache = true
	ws := []workload.Workload{streamWorkload(512, 3), streamWorkload(512, 3)}
	multi := MustRunMulti(cfg, ws)
	for i, c := range multi.Cores {
		if c.AMU.MapOps == 0 {
			t.Errorf("core %d: no AMU activity", i)
		}
		if c.PinnedAtomsMax == 0 {
			t.Errorf("core %d: nothing pinned", i)
		}
	}
}
