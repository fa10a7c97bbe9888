package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squarePoints is a small sweep whose result is a function of the point's
// position, so an outcome stored in the wrong slot shows up as a mismatch.
func squarePoints(n int) []Point[int] {
	pts := make([]Point[int], n)
	for i := 0; i < n; i++ {
		pts[i] = Point[int]{
			Key: fmt.Sprintf("p%02d", i),
			Run: func(*Ctx) (int, error) { return i * i, nil },
		}
	}
	return pts
}

func TestSequentialVsParallelIdentical(t *testing.T) {
	pts := squarePoints(17)
	seq, err := Run("sq", pts, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run("sq", pts, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("len %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Key != par[i].Key || seq[i].Result != par[i].Result || seq[i].Err != par[i].Err {
			t.Errorf("point %d: sequential %+v vs parallel %+v", i, seq[i], par[i])
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	pts := squarePoints(6)
	pts[2].Run = func(*Ctx) (int, error) { panic("boom") }
	outs, err := Run("pnc", pts, Options{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i == 2 {
			if o.Err == "" || !strings.Contains(o.Err, "boom") {
				t.Errorf("panicking point: err = %q, want panic recorded", o.Err)
			}
			continue
		}
		if o.Err != "" {
			t.Errorf("point %d failed: %s", i, o.Err)
		}
	}
	if err := FailErr(outs); err == nil || !strings.Contains(err.Error(), "p02") {
		t.Errorf("FailErr = %v", err)
	}
	if rs := Results(outs); len(rs) != 5 {
		t.Errorf("Results kept %d values, want 5", len(rs))
	}
}

func TestTimeout(t *testing.T) {
	pts := squarePoints(3)
	pts[1].Run = func(*Ctx) (int, error) {
		time.Sleep(5 * time.Second)
		return 0, nil
	}
	start := time.Now()
	outs, err := Run("to", pts, Options{Parallel: 1, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout did not bound the sweep")
	}
	if !strings.Contains(outs[1].Err, "timeout") {
		t.Errorf("outcome err = %q, want timeout", outs[1].Err)
	}
	if outs[0].Err != "" || outs[2].Err != "" {
		t.Errorf("timeout leaked into other points: %q %q", outs[0].Err, outs[2].Err)
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	counted := func(n int) []Point[int] {
		pts := squarePoints(n)
		for i := range pts {
			run := pts[i].Run
			pts[i].Run = func(c *Ctx) (int, error) {
				calls.Add(1)
				return run(c)
			}
		}
		return pts
	}

	first, err := Run("ckpt", counted(8), Options{Parallel: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("first run executed %d points", calls.Load())
	}
	if _, err := os.Stat(checkpointPath(dir, "ckpt")); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	// Resume: nothing re-runs, results identical, outcomes marked.
	calls.Store(0)
	resumed, err := Run("ckpt", counted(8), Options{Parallel: 4, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("resume re-ran %d points", calls.Load())
	}
	for i := range first {
		if first[i].Result != resumed[i].Result {
			t.Errorf("point %d: %d vs resumed %d", i, first[i].Result, resumed[i].Result)
		}
		if !resumed[i].Resumed {
			t.Errorf("point %d not marked resumed", i)
		}
	}

	// A sweep with more points resumes the old ones and runs the new.
	calls.Store(0)
	grown, err := Run("ckpt", counted(10), Options{Parallel: 2, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("grown resume ran %d points, want 2", calls.Load())
	}
	if len(grown) != 10 || grown[9].Err != "" {
		t.Errorf("grown sweep incomplete: %+v", grown[9])
	}
}

func TestCheckpointRetriesFailures(t *testing.T) {
	dir := t.TempDir()
	pts := squarePoints(4)
	orig := pts[1].Run
	pts[1].Run = func(*Ctx) (int, error) { return 0, fmt.Errorf("flaky") }
	outs, err := Run("flaky", pts, Options{Parallel: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].Err == "" {
		t.Fatal("expected failure recorded")
	}

	// The fixed point re-runs on resume; the healthy ones restore.
	pts[1].Run = orig
	outs, err = Run("flaky", pts, Options{Parallel: 2, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].Err != "" {
		t.Errorf("retried point still failed: %s", outs[1].Err)
	}
	if outs[1].Resumed {
		t.Error("failed point must re-run, not resume")
	}
	if !outs[0].Resumed || !outs[2].Resumed || !outs[3].Resumed {
		t.Error("healthy points should resume")
	}
}

func TestCheckpointSweepMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run("alpha", squarePoints(2), Options{Parallel: 1, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Same file name, different sweep identity → refuse to resume.
	data, err := os.ReadFile(checkpointPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(checkpointPath(dir, "beta"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run("beta", squarePoints(2), Options{Parallel: 1, CheckpointDir: dir, Resume: true}); err == nil {
		t.Error("mismatched checkpoint accepted")
	}
}

// TestCheckpointDirectory: Run creates a missing checkpoint directory, and
// a path it cannot create fails before any point runs.
func TestCheckpointDirectory(t *testing.T) {
	t.Run("created", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "a", "b")
		if _, err := Run("ckpt", squarePoints(2), Options{Parallel: 1, CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(checkpointPath(dir, "ckpt")); err != nil {
			t.Fatalf("checkpoint file missing: %v", err)
		}
	})
	t.Run("under-a-file", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "afile")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		pts := squarePoints(2)
		var calls atomic.Int64
		for i := range pts {
			pts[i].Run = func(*Ctx) (int, error) { calls.Add(1); return 0, nil }
		}
		if _, err := Run("ckpt", pts, Options{Parallel: 1, CheckpointDir: filepath.Join(file, "ck")}); err == nil {
			t.Error("a checkpoint directory under a regular file was accepted")
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%d points ran before the checkpoint error", n)
		}
	})
}

func TestDuplicateKeysRejected(t *testing.T) {
	pts := squarePoints(3)
	pts[2].Key = pts[0].Key
	if _, err := Run("dup", pts, Options{Parallel: 1}); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	pts := squarePoints(3)
	pts[0].Line = func(r int) string { return fmt.Sprintf("detail r=%d\n", r) }
	if _, err := Run("prg", pts, Options{Parallel: 1, Progress: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1/3]", "[2/3]", "[3/3]", "detail r=", "sweep prg done: 3 points"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckpointFileNames(t *testing.T) {
	got := checkpointPath("/tmp/ck", "fig4/mini preset")
	if filepath.Base(got) != "fig4_mini_preset.ckpt.json" {
		t.Errorf("checkpoint name = %s", got)
	}
}
