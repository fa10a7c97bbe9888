package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"xmem/internal/experiments/runner"
	"xmem/internal/obs"
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
// then resumes it: every point must restore rather than re-run, and the
// assembled result must be identical.
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
	reg := obs.NewRegistry()
	resumed, err := fig4.Run(p, runner.Options{Parallel: 2, CheckpointDir: dir, Resume: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	for i, v := range reg.Snapshot() {
		counters[reg.Names()[i]] = v
	}
	total, restored := counters["runner.fig4_mini.points_total"], counters["runner.fig4_mini.points_resumed"]
	if total == 0 || restored != total {
		t.Errorf("resumed %v of %v points; every point must restore instead of re-running", restored, total)
	}
	if !reflect.DeepEqual(resumed, first) {
		t.Errorf("resumed result differs:\nfirst   %+v\nresumed %+v", first, resumed)
	}
}
