package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmem/internal/experiments/runner"
)

// TestFig4SweepParallelMatchesSequential is the acceptance check for the
// sweep port: fanning a figure's points over workers must produce the same
// rows in the same order — and therefore byte-identical report output — as
// the sequential run.
func TestFig4SweepParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	p.UC1Kernels = []string{"gemm"}
	p.UC1N = 96
	fig4 := experiment(t, "fig4")

	seq, err := fig4.Run(p, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fig4.Run(p, runner.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("results differ:\nsequential %+v\nparallel   %+v", seq, par)
	}
	var a, b bytes.Buffer
	fig4.Print(seq, &a)
	fig4.Print(par, &b)
	if a.String() != b.String() {
		t.Error("report output not byte-identical between sequential and parallel runs")
	}
}

// TestFig4SweepCheckpointResume runs a figure sweep with checkpointing,
// then resumes it: the -v summary must count every point as resumed, none
// re-run, and the assembled result must be identical.
func TestFig4SweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	p.UC1Kernels = []string{"gemm"}
	p.UC1N = 96
	dir := t.TempDir()
	fig4 := experiment(t, "fig4")

	first, err := fig4.Run(p, runner.Options{Parallel: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	resumed, err := fig4.Run(p, runner.Options{Parallel: 2, CheckpointDir: dir, Resume: true, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	n := len(fig4Points(p))
	if want := fmt.Sprintf("sweep fig4/mini done: %d points (0 failed, %d resumed)", n, n); !strings.Contains(progress.String(), want) {
		t.Errorf("every point must restore instead of re-running; want %q in:\n%s", want, progress.String())
	}
	if !reflect.DeepEqual(resumed, first) {
		t.Errorf("resumed result differs:\nfirst   %+v\nresumed %+v", first, resumed)
	}
}
