package experiments

import "testing"

func TestHybridMiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "hybrid").(HybridResult)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, row := range res.Rows {
		// All-DRAM is the floor; naive hybrid the ceiling; XMem between.
		if row.AllDRAMCycles > row.NaiveCycles {
			t.Errorf("%s: all-DRAM (%d) slower than naive hybrid (%d)",
				row.Workload, row.AllDRAMCycles, row.NaiveCycles)
		}
		if row.XMemCycles > row.NaiveCycles {
			t.Errorf("%s: XMem placement (%d) slower than naive (%d)",
				row.Workload, row.XMemCycles, row.NaiveCycles)
		}
		if row.Speedup() < 1.02 {
			t.Errorf("%s: XMem tier placement speedup %.3f; expected a visible win", row.Workload, row.Speedup())
		}
		if g := row.GapClosed(); g <= 0 || g > 1.3 {
			t.Errorf("%s: gap closed %.2f out of plausible range", row.Workload, g)
		}
	}
}

func TestCorunMiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "corun").(CorunResult)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 co-runner counts", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		row := res.Rows[i]
		// Co-runners must slow the kernel down.
		if row.BaselineSlowdown() < 1.01 {
			t.Errorf("+%d co-runners: baseline slowdown %.3f; no contention",
				row.CoRunners, row.BaselineSlowdown())
		}
		// And XMem must be absolutely faster under contention.
		if row.XMemCycles >= row.BaselineCycles {
			t.Errorf("+%d co-runners: XMem (%d) not faster than baseline (%d)",
				row.CoRunners, row.XMemCycles, row.BaselineCycles)
		}
	}
	// Slowdown grows with co-runner count on the baseline.
	if res.Rows[3].BaselineSlowdown() <= res.Rows[1].BaselineSlowdown() {
		t.Errorf("baseline slowdown not increasing: +1 -> %.3f, +3 -> %.3f",
			res.Rows[1].BaselineSlowdown(), res.Rows[3].BaselineSlowdown())
	}
}

func TestNumaMiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "numa").(NumaResult)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]NumaRow{}
	for _, row := range res.Rows {
		byName[row.Placement] = row
	}
	// XMem placement keeps essentially everything local.
	if f := byName["xmem"].RemoteFraction; f > 0.02 {
		t.Errorf("xmem remote fraction = %.3f, want ~0", f)
	}
	// Interleave sends about half remote; node0 hurts worker 1 badly.
	if f := byName["interleave"].RemoteFraction; f < 0.3 || f > 0.7 {
		t.Errorf("interleave remote fraction = %.3f, want ~0.5", f)
	}
	if byName["node0"].RemoteFraction < 0.3 {
		t.Errorf("node0 remote fraction = %.3f", byName["node0"].RemoteFraction)
	}
	// And the cycle ordering follows.
	if res.Speedup("interleave") <= 1.0 {
		t.Errorf("xmem vs interleave speedup = %.3f", res.Speedup("interleave"))
	}
	if res.Speedup("node0") <= 1.0 {
		t.Errorf("xmem vs node0 speedup = %.3f", res.Speedup("node0"))
	}
}

func TestAblationMiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := miniReport(t, "ablation").(AblationResult)
	knobs := map[string]int{}
	for _, pt := range res.Points {
		knobs[pt.Knob]++
		if pt.Cycles == 0 {
			t.Errorf("%s/%s produced zero cycles", pt.Knob, pt.Setting)
		}
	}
	for _, k := range []string{"aam-gran", "pin-cap", "pf-degree", "scheduler"} {
		if knobs[k] == 0 {
			t.Errorf("knob %s missing", k)
		}
	}
	// FR-FCFS must not lose to FCFS.
	var fr, fcfs uint64
	for _, pt := range res.Points {
		if pt.Knob == "scheduler" && pt.Setting == "FR-FCFS" {
			fr = pt.Cycles
		}
		if pt.Knob == "scheduler" && pt.Setting == "FCFS" {
			fcfs = pt.Cycles
		}
	}
	if fcfs < fr {
		t.Errorf("FCFS (%d) beat FR-FCFS (%d)", fcfs, fr)
	}
}
