// Command xmem-perf measures the simulator's host cost on one named
// workload: simulated demand accesses per host second, machine set-up time,
// and host allocations and allocated bytes per access, each from medians
// over repeated passes. Host times are counted in units of a fixed
// reference task timed beside them (reference.go), which takes most of the
// host's own drift out of them. With -trace 1 it instead re-runs the same
// points traced and prints per-layer costs. Every run checks the simulated output: each
// point's statistics must hash the same in every pass (and, for seed 1, as
// the goldens committed in testdata/), so a speed-up that changes what is
// simulated fails the run.
//
// Usage (from the repository root):
//
//	sh bench/run.sh --workload tiled --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics": {name: {"value", "unit"}}}. The command
// exits non-zero when any point fails.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// minPasses is the least number of timed passes an end-to-end run makes.
const minPasses = 5

// options are the command's parsed flags plus the test-only knobs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size scales every point's input; minPasses bounds the timed passes.
	size      float64
	minPasses int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xmem-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", names))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "host seconds of timed passes (at least 5 passes run)")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from traced re-runs instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "xmem-perf: usage: xmem-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	rep, err := execute(options{
		workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		size: 1, minPasses: minPasses,
	}, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "xmem-perf: %v\n", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported number. n > 1 means value is the median of n
// samples with quartiles q1 and q3. An info metric is printed but left out
// of the result line.
type metric struct {
	name   string
	unit   string
	value  float64
	q1, q3 float64
	n      int
	info   bool
}

// jsonMetric is a metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// execute runs one workload and prints its metrics, then the result line.
func execute(opt options, stdout, stderr io.Writer) (report, error) {
	w, ok := workloadByName(opt.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", opt.workload)
	}
	points := w.points(opt.seed, opt.size)
	// The process gets one P, for the one sweep worker. A spare P only runs
	// the collector in parallel, and the load on that other core then leaks
	// into the timing: on a shared 2-vCPU host, in interleaved runs over
	// ten seeds, the IQR/median of accesses_per_s on placement was 5% with
	// one P and 18% with two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var golden map[string]uint64
	if opt.seed == 1 && opt.size == 1 {
		all, err := loadGoldens()
		if err != nil {
			return report{}, err
		}
		if golden, ok = all[w.name]; !ok {
			return report{}, fmt.Errorf("no goldens for %s in testdata/golden.json", w.name)
		}
	}
	soft, err := runNullPass(points, false)
	if err != nil {
		return report{}, err
	}
	chk := newChecker(points, soft.counts, golden)
	var ms []metric
	if opt.trace {
		ms, err = traceRun(w, points, soft, chk)
		if err != nil {
			return report{}, err
		}
	} else {
		ms = measure(w, points, chk, opt)
	}

	fmt.Fprintf(stdout, "xmem-perf %s seed=%d trace=%v: %d points, host %s/%s nproc=%d %s\n",
		w.name, opt.seed, opt.trace, len(points),
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	for _, m := range ms {
		if m.n > 1 {
			fmt.Fprintf(stdout, "  %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n", m.name, m.value, m.unit, m.q1, m.q3, m.n)
		} else {
			fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(stdout, "  %-34s %14.6g ratio (%d of %d point runs)\n", "failed_frac",
		ratio(float64(chk.failed), float64(chk.attempted)), chk.failed, chk.attempted)
	for _, p := range chk.problems {
		fmt.Fprintf(stderr, "xmem-perf: FAILED %s\n", p)
	}

	rep := report{
		Correct:   chk.failed == 0 && len(chk.problems) == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]jsonMetric, len(ms)),
	}
	for _, m := range ms {
		if !m.info {
			rep.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rep, nil
}

// setupReps is how many times an end-to-end run builds each point's machine
// to time its set-up.
const setupReps = 25

// measure is the end-to-end run: one untimed warm-up pass, then timed
// passes until opt.seconds have passed and at least opt.minPasses ran,
// then setupReps set-up-only passes. Times are in reference units
// (reference.go). accesses_per_s is one pass's accesses over the sum, over
// points, of each point's median time; its quartiles come from the sums of
// the points' quartile times.
func measure(w benchWorkload, points []point, chk *checker, opt options) []metric {
	ref := newRefTask()
	runtime.GC()
	chk.check(runPass(w.name, points, mode{}))
	times := make([][]float64, len(points))
	hostTimes := make([][]float64, len(points))
	var refMS, allocs, bytes []float64
	var acc float64
	start := time.Now()
	for len(allocs) < opt.minPasses || time.Since(start).Seconds() < opt.seconds {
		runtime.GC()
		ps := runPass(w.name, points, mode{ref: ref})
		chk.check(ps)
		acc = float64(ps.accesses())
		for i, r := range ps.runs {
			times[i] = append(times[i], refSeconds(r.wall, r.ref))
			hostTimes[i] = append(hostTimes[i], r.wall.Seconds())
			refMS = append(refMS, float64(r.ref.Microseconds())/1e3)
		}
		allocs = append(allocs, ratio(float64(ps.mallocs), acc))
		bytes = append(bytes, ratio(float64(ps.bytes), acc))
	}
	return []metric{
		rate("accesses_per_s", acc, sumMedians("", "", times)),
		measureSetup(w.name, points, ref),
		summarize("allocs_per_access", "count", allocs),
		summarize("alloc_bytes_per_access", "B", bytes),
		// The same rate in raw host seconds, and the reference task's time,
		// show how far the host was from its usual speed.
		asInfo(rate("host_accesses_per_s", acc, sumMedians("", "", hostTimes))),
		asInfo(summarize("ref_task_ms", "ms", refMS)),
	}
}

// rate is accesses over the pass time t, with t's quartiles swapped into
// the rate's.
func rate(name string, accesses float64, t metric) metric {
	return metric{name: name, unit: "1/s", n: t.n,
		value: ratio(accesses, t.value), q1: ratio(accesses, t.q3), q3: ratio(accesses, t.q1)}
}

// asInfo marks m as an info metric.
func asInfo(m metric) metric {
	m.info = true
	return m
}

// measureSetup times machine construction apart from the simulation: every
// point's machine is built setupReps times, one point at a time, with
// workloads that return on entry. The collector is off while a round of
// builds is timed and runs between rounds, so no collection lands in a
// build. Each round's builds are scaled by one reference task run just
// before the round, so that they run back to back. setup_s is the sum over
// points of each point's median (and quartiles), in reference units.
func measureSetup(name string, points []point, ref *refTask) metric {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	times := make([][]float64, len(points))
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		refTime := ref.run()
		for i, run := range runPass(name, points, mode{setupOnly: true}).runs {
			times[i] = append(times[i], refSeconds(run.setup, refTime))
		}
	}
	return sumMedians("setup_s", "s", times)
}

// refSeconds is host time d in reference units, given the reference task's
// time ref just before it.
func refSeconds(d, ref time.Duration) float64 {
	return ratio(d.Seconds(), ref.Seconds()) * refUnit.Seconds()
}

// sumMedians sums, over points, the median and quartiles of each point's
// samples.
func sumMedians(name, unit string, times [][]float64) metric {
	m := metric{name: name, unit: unit}
	for _, xs := range times {
		q1, med, q3 := quartiles(xs)
		m.q1 += q1
		m.value += med
		m.q3 += q3
		m.n = len(xs)
	}
	return m
}

// summarize reports the median of xs with its quartiles.
func summarize(name, unit string, xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{name: name, unit: unit, value: med, q1: q1, q3: q3, n: len(xs)}
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the exclusive method of Python's statistics.quantiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// goldenJSON holds, per workload and point key, the hex FNV-64 hash of the
// point's simulated statistics at seed 1. Regenerate with
// `go test ./xmem-perf -run TestGoldens -update` from bench/.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func loadGoldens() (map[string]map[string]uint64, error) {
	var raw map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &raw); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	out := make(map[string]map[string]uint64, len(raw))
	for w, keys := range raw {
		out[w] = make(map[string]uint64, len(keys))
		for k, hex := range keys {
			h, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("goldens: %s %s: %w", w, k, err)
			}
			out[w][k] = h
		}
	}
	return out, nil
}
