package dram

import (
	"runtime"
	"testing"

	"xmem/internal/mem"
)

// The TestHotPath gates (part of `make alloc-gate`) pin the controller's
// per-request budget on warmed queues: a writeback and a write-queue hit
// allocate nothing, and reads allocate one chunk of futureChunk Futures per
// futureChunk reads, 24 bytes per read.

// allocsPerBatch counts the allocations of n steps. AllocsPerRun truncates
// to whole allocations per run, so a run is a batch of steps and an
// occasional regrowth still counts.
func allocsPerBatch(n int, step func()) float64 {
	return testing.AllocsPerRun(20, func() {
		for i := 0; i < n; i++ {
			step()
		}
	})
}

func hotController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(Config{Geometry: DefaultGeometry(), Timing: DefaultTiming(), Scheme: "ro:ra:ba:co:ch"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHotPathWritebackAllocFree(t *testing.T) {
	c := hotController(t)
	var i, at uint64
	step := func() {
		// Lines spread over rows and banks; the write queue's bound
		// schedules writes as the stream overflows it.
		c.Access(mem.Addr(i*7919%(1<<20))<<mem.LineShift, mem.Writeback, at, 0)
		i++
		at += 10
	}
	for j := 0; j < 1024; j++ {
		step()
	}
	before := c.Stats().Writes
	if allocs := allocsPerBatch(256, step); allocs != 0 {
		t.Errorf("writebacks allocate %v per 256, want 0", allocs)
	}
	if c.Stats().Writes == before {
		t.Fatal("measured writebacks never reached a bank")
	}
}

func TestHotPathWriteQueueHitAllocFree(t *testing.T) {
	c := hotController(t)
	const queued = 8
	for i := 0; i < queued; i++ {
		c.Access(mem.Addr(i)<<mem.LineShift, mem.Writeback, 0, 0)
	}
	var i, at uint64
	before := c.Stats().WriteQueueHits
	step := func() {
		kind := mem.Read
		if i%4 == 3 {
			kind = mem.Prefetch
		}
		c.Access(mem.Addr(i%queued)<<mem.LineShift, kind, at, 0)
		i++
		at += 10
	}
	if allocs := allocsPerBatch(256, step); allocs != 0 {
		t.Errorf("write-queue hits allocate %v per 256, want 0", allocs)
	}
	if hits := c.Stats().WriteQueueHits - before; hits != i {
		t.Fatalf("%d of %d reads hit the write queue", hits, i)
	}
}

func TestHotPathReadsAllocateInChunks(t *testing.T) {
	c := hotController(t)
	var i, at uint64
	step := func() {
		// More reads than the queue holds: each read past the cap forces
		// the earliest-queued read, so the queue stays at its high-water
		// size.
		c.Access(mem.Addr(i*7919%(1<<20))<<mem.LineShift, mem.Read, at, 0)
		i++
		at += 5
	}
	for j := 0; j < 1024; j++ {
		step()
	}
	before := c.Stats()
	// The stream alternates the two channels, so the warm-up leaves each
	// on a chunk boundary and a batch of 256 reads takes exactly
	// 256/futureChunk chunks.
	if allocs := allocsPerBatch(256, step); allocs != 256/futureChunk {
		t.Errorf("reads allocate %v per 256, want %d (one chunk per %d reads)", allocs, 256/futureChunk, futureChunk)
	}
	after := c.Stats()
	if after.Reads == before.Reads || after.WriteQueueHits != before.WriteQueueHits {
		t.Fatalf("measured reads were not scheduled misses: before %+v, after %+v", before, after)
	}

	const reads = 1024
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for j := 0; j < reads; j++ {
		step()
	}
	runtime.ReadMemStats(&ms)
	if bytes := ms.TotalAlloc - start; bytes > 24*reads {
		t.Errorf("%d reads allocate %d bytes, want at most 24 per read", reads, bytes)
	}
}
