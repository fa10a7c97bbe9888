package main

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// The end-to-end times are counted in reference units, not raw host
// seconds. Before every timed point (and every timed machine build) the
// same goroutine runs a fixed reference task, and the point's host time is
// divided by the task's: the quotient is the point's time in tasks, and
// refUnit turns it back into seconds. Other tenants of the shared host slow
// its cores and caches for seconds at a time, by up to 2×; they slow the
// simulator and the task alike, so the quotient stays put while a change to
// the simulator still moves it.
//
// The task sorts a fixed table of records with a three-key comparison:
// branchy, call-heavy code over a working set inside a core's L2. Of the
// references tried on the host of the recorded numbers (README.md), it
// tracked the simulator best. In one probe, ten runs per workload with
// seeds 1-10, the IQR/median of the throughput was 2.7-4.0% with a sort
// like this one, 5.6-11% with 300k random updates to a 1 MiB table,
// 6.9-14% with churn in a 16k-entry map, 13-23% with a pointer chase
// through 4 MiB, and 6.1-11% in raw host seconds.

// refUnit is the host time one reference task counts as: about the task's
// time on the recorded host (1.6-2.4 ms), so that times in reference units
// read close to host seconds there.
const refUnit = 2 * time.Millisecond

// refRecords is the number of records the task sorts: 256 KiB of them.
const refRecords = 8192

// refRecord is one record of the reference task's table.
type refRecord struct {
	group, id uint64
	name      string
}

// refTask is the reference task: it sorts a copy of a fixed table.
type refTask struct {
	table, work []refRecord
}

func newRefTask() *refTask {
	rng := rand.New(rand.NewSource(1))
	t := &refTask{table: make([]refRecord, refRecords), work: make([]refRecord, refRecords)}
	for i := range t.table {
		t.table[i] = refRecord{
			group: uint64(rng.Intn(1000)),
			id:    rng.Uint64(),
			name:  strconv.Itoa(rng.Intn(26)),
		}
	}
	return t
}

// run runs the task twice and returns the host time of the second run. The
// first brings the table back into the caches, so that the timed run does
// not depend on how much of them the point before it used: a change to the
// simulator's footprint must not move its reference.
func (t *refTask) run() time.Duration {
	t.sort()
	start := time.Now()
	t.sort()
	return time.Since(start)
}

func (t *refTask) sort() {
	copy(t.work, t.table)
	slices.SortFunc(t.work, func(a, b refRecord) int {
		if c := cmp.Compare(a.group, b.group); c != 0 {
			return c
		}
		if c := cmp.Compare(a.name, b.name); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
}
