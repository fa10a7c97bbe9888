package cpu

import (
	"testing"

	"xmem/internal/mem"
)

// TestHotPathIssueMemAllocFree: the instruction window's rings are
// allocated once, on first use, so a warmed core issues loads and stores
// without allocating, also while ROB and LSQ stalls pop and refill the
// rings. Part of `make alloc-gate`.
func TestHotPathIssueMemAllocFree(t *testing.T) {
	c := New(Config{IssueWidth: 4, ROBSize: 16, LQSize: 4, SQSize: 2})
	access := func(at uint64) mem.Result { return mem.Done(at + 200) }
	i := 0
	step := func() {
		// Bursts of memory ops fill the LQ and SQ; the occasional long
		// ALU run pushes the oldest op out of the ROB window.
		if i%8 == 7 {
			c.Work(24)
		}
		c.IssueMem(i%3 != 2, access)
		i++
	}
	for j := 0; j < 64; j++ {
		step()
	}
	before := c.Stats()
	// AllocsPerRun truncates to whole allocations per run, so each run is
	// a batch: an occasional slice regrowth still counts.
	if allocs := testing.AllocsPerRun(20, func() {
		for j := 0; j < 256; j++ {
			step()
		}
	}); allocs != 0 {
		t.Errorf("IssueMem allocates %v per 256 ops, want 0", allocs)
	}
	after := c.Stats()
	if after.ROBStallCycles == before.ROBStallCycles || after.LSQStallCycles == before.LSQStallCycles {
		t.Fatalf("measured stream did not stall both structures: before %+v, after %+v", before, after)
	}
}
