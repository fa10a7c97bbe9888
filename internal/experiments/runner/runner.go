// Package runner is the deterministic parallel sweep engine behind the
// experiment drivers: it fans independent experiment points (figure ×
// workload × config) out over a bounded worker pool while keeping every
// observable output — results and reports — identical to a sequential
// run.
//
// Determinism model (see DESIGN.md, "Sweep runner"):
//
//   - Result order is point order. Workers complete in any order, but
//     outcomes are written into a slice indexed by the point's position, so
//     assembly (and therefore every printed report) is independent of
//     scheduling.
//
//   - Points share nothing. Each point builds its own machine and
//     workload; every seeded component takes a fixed seed from its config
//     (such as sim.Config.AllocSeed), never one derived from time or
//     scheduling.
//
//   - Failure is data. A panicking or timed-out point records a failed
//     Outcome instead of killing the sweep; the checkpoint remembers the
//     failure and -resume retries exactly the failed and missing points.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Point is one independent unit of sweep work.
type Point[R any] struct {
	// Key identifies the point: stable across runs, unique within the
	// sweep (e.g. "gemm/tile=64KB"). Checkpoint entries hang off it.
	Key string
	// Run computes the point's result. It must not touch shared mutable
	// state: everything it needs arrives via its closure (immutable).
	Run func(c *Ctx) (R, error)
	// Line optionally renders a completed result as progress text (may be
	// multi-line). The runner emits it atomically on completion.
	Line func(r R) string
}

// Ctx carries the running point's identity into Run.
type Ctx struct {
	// Sweep and Key identify the running point.
	Sweep, Key string
}

// Options tune one sweep execution.
type Options struct {
	// Parallel is the worker count: 0 picks GOMAXPROCS, 1 runs the points
	// one at a time in point order.
	Parallel int
	// Timeout bounds each point's wall time (0 = unbounded). A point that
	// exceeds it is recorded as failed; its goroutine is abandoned (the
	// simulator has no preemption points), so a sweep with timeouts may
	// hold memory until process exit.
	Timeout time.Duration
	// CheckpointDir, when non-empty, persists per-point outcomes to
	// <dir>/<sweep>.ckpt.json after every completion (atomic rename), so
	// an interrupted sweep can resume.
	CheckpointDir string
	// Resume loads the sweep's checkpoint (if any) and skips points whose
	// results it already holds; failed points are retried.
	Resume bool
	// Progress, when non-nil, receives live "[done/total]" lines as points
	// complete plus a final summary line.
	Progress io.Writer
}

// Outcome is one point's recorded execution.
type Outcome[R any] struct {
	// Key identifies the point; outcomes are returned in point order
	// regardless of completion order.
	Key string
	// Result is valid when Err is empty.
	Result R
	// Err is the point's failure ("" = success): the Run error, a panic
	// message, or a timeout.
	Err string
	// Wall is the point's execution time (restored from the checkpoint
	// for resumed points).
	Wall time.Duration
	// Resumed marks results restored from a checkpoint.
	Resumed bool
}

// Results extracts the successful results in point order.
func Results[R any](outs []Outcome[R]) []R {
	var rs []R
	for _, o := range outs {
		if o.Err == "" {
			rs = append(rs, o.Result)
		}
	}
	return rs
}

// FailErr summarizes failed outcomes as an error (nil when all succeeded).
func FailErr[R any](outs []Outcome[R]) error {
	var first string
	n := 0
	for _, o := range outs {
		if o.Err != "" {
			if n == 0 {
				first = fmt.Sprintf("%s: %s", o.Key, o.Err)
			}
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("runner: point %s", first)
	}
	return fmt.Errorf("runner: %d points failed (first: %s)", n, first)
}

// Run executes the sweep's points and returns their outcomes in point
// order. The returned error reports infrastructure problems (duplicate
// keys, unreadable/unwritable checkpoints); per-point failures live in the
// outcomes — see FailErr.
func Run[R any](sweep string, points []Point[R], opt Options) ([]Outcome[R], error) {
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) && len(points) > 0 {
		workers = len(points)
	}

	seen := make(map[string]bool, len(points))
	for _, p := range points {
		if p.Key == "" || seen[p.Key] {
			return nil, fmt.Errorf("runner: sweep %s: duplicate or empty point key %q", sweep, p.Key)
		}
		seen[p.Key] = true
	}

	outs := make([]Outcome[R], len(points))
	for i, p := range points {
		outs[i] = Outcome[R]{Key: p.Key}
	}

	ck, err := openCheckpoint(sweep, opt)
	if err != nil {
		return nil, err
	}
	var todo []int
	for i := range points {
		if ck != nil && restore(ck, &outs[i]) {
			continue
		}
		todo = append(todo, i)
	}

	start := time.Now()
	var mu sync.Mutex // serializes progress output and checkpoint writes
	var ckErr error
	done := len(points) - len(todo)
	finish := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if ck != nil {
			if err := record(ck, outs[i]); err != nil && ckErr == nil {
				ckErr = err
			}
		}
		if opt.Progress != nil {
			status := "ok"
			if outs[i].Err != "" {
				status = "FAILED: " + outs[i].Err
			}
			if line := pointLine(points[i], outs[i]); line != "" {
				io.WriteString(opt.Progress, line)
			}
			fmt.Fprintf(opt.Progress, "sweep %s [%d/%d] %s %s (%.2fs)\n",
				sweep, done, len(points), outs[i].Key, status, outs[i].Wall.Seconds())
		}
	}

	// The workers take points in order; with one worker they also finish
	// in order.
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i] = runPoint(sweep, points[i], opt.Timeout)
				finish(i)
			}
		}()
	}
	for _, i := range todo {
		idx <- i
	}
	close(idx)
	wg.Wait()

	if opt.Progress != nil {
		elapsed := time.Since(start)
		var wallSum time.Duration
		failed := 0
		for _, o := range outs {
			wallSum += o.Wall
			if o.Err != "" {
				failed++
			}
		}
		fmt.Fprintf(opt.Progress,
			"sweep %s done: %d points (%d failed, %d resumed) in %.2fs (points sum %.2fs, workers %d)\n",
			sweep, len(outs), failed, len(points)-len(todo), elapsed.Seconds(), wallSum.Seconds(), workers)
	}
	return outs, ckErr
}

// pointLine renders a point's optional progress text.
func pointLine[R any](p Point[R], o Outcome[R]) string {
	if p.Line == nil || o.Err != "" {
		return ""
	}
	return p.Line(o.Result)
}

// runPoint executes one point with panic recovery and an optional timeout.
func runPoint[R any](sweep string, p Point[R], timeout time.Duration) Outcome[R] {
	out := Outcome[R]{Key: p.Key}
	start := time.Now()
	type reply struct {
		r   R
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				var zero R
				ch <- reply{zero, fmt.Errorf("panic: %v", v)}
			}
		}()
		r, err := p.Run(&Ctx{Sweep: sweep, Key: p.Key})
		ch <- reply{r, err}
	}()
	var expired <-chan time.Time // nil without a timeout: never fires
	if timeout > 0 {
		expired = time.After(timeout)
	}
	select {
	case rep := <-ch:
		out.Result = rep.r
		if rep.err != nil {
			out.Err = rep.err.Error()
		}
	case <-expired:
		out.Err = fmt.Sprintf("timeout after %s", timeout)
	}
	out.Wall = time.Since(start)
	return out
}
