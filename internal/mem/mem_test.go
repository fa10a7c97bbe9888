package mem

import (
	"testing"
	"testing/quick"
)

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", LineAddr(0x12345))
	}
	if LineIndex(0x12345) != 0x12345>>6 {
		t.Errorf("LineIndex = %#x", LineIndex(0x12345))
	}
	if PageAddr(0x12345) != 0x12000 {
		t.Errorf("PageAddr = %#x", PageAddr(0x12345))
	}
	if PageIndex(0x12345) != 0x12 {
		t.Errorf("PageIndex = %#x", PageIndex(0x12345))
	}
	if PageOffset(0x12345) != 0x345 {
		t.Errorf("PageOffset = %#x", PageOffset(0x12345))
	}
}

func TestLineHelpersQuick(t *testing.T) {
	prop := func(a uint64) bool {
		addr := Addr(a)
		la := LineAddr(addr)
		pa := PageAddr(addr)
		return la <= addr && addr-la < LineBytes &&
			pa <= addr && addr-pa < PageBytes &&
			uint64(pa)+PageOffset(addr) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessKind(t *testing.T) {
	if !Read.IsDemand() || !Write.IsDemand() {
		t.Error("read/write must be demand")
	}
	if Prefetch.IsDemand() || Writeback.IsDemand() {
		t.Error("prefetch/writeback must not be demand")
	}
	names := map[AccessKind]string{
		Read: "read", Write: "write", Writeback: "writeback", Prefetch: "prefetch",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestResultDone(t *testing.T) {
	r := Done(42)
	if c, ok := r.Peek(); !ok || c != 42 {
		t.Fatalf("Peek = %d,%v", c, ok)
	}
	if r.Wait() != 42 {
		t.Fatal("Wait mismatch")
	}
}

func TestFutureForceResolves(t *testing.T) {
	var f *Future
	forced := 0
	f = NewFuture(func() {
		forced++
		f.Resolve(100)
	})
	r := Pending(f)
	if _, ok := r.Peek(); ok {
		t.Fatal("pending future peeked as resolved")
	}
	if got := r.Wait(); got != 100 {
		t.Fatalf("Wait = %d", got)
	}
	if got := r.Wait(); got != 100 || forced != 1 {
		t.Fatalf("second Wait = %d, forced %d times", got, forced)
	}
	if c, ok := r.Peek(); !ok || c != 100 {
		t.Fatal("resolved future must peek")
	}
}

func TestFutureZeroValueIsResolved(t *testing.T) {
	// A nil owner means resolved, so a Future is pending only after Init.
	var zero Future
	if c, ok := Pending(&zero).Peek(); !ok || c != 0 {
		t.Fatalf("zero Future peeks %d,%v; want 0,true", c, ok)
	}
}

// recordOwner keeps each future inside a record of its own, so the owner
// decides where its futures live (the DRAM controller carves them from
// chunks), and resolves one when it is forced.
type recordOwner struct {
	records []*ownedRecord
	forced  []*Future
}

type ownedRecord struct {
	fut  Future
	done uint64
}

func (o *recordOwner) Force(f *Future) {
	o.forced = append(o.forced, f)
	for _, r := range o.records {
		if &r.fut == f {
			f.Resolve(r.done)
		}
	}
}

func TestFutureForcedThroughOwner(t *testing.T) {
	a, b := &ownedRecord{done: 70}, &ownedRecord{done: 90}
	o := &recordOwner{records: []*ownedRecord{a, b}}
	a.fut.Init(o)
	b.fut.Init(o)
	ra, rb := Pending(&a.fut), Pending(&b.fut)
	if got := rb.Wait(); got != 90 {
		t.Fatalf("Wait = %d, want 90", got)
	}
	if _, ok := ra.Peek(); ok {
		t.Fatal("forcing b resolved a")
	}
	if got := ra.Wait(); got != 70 || len(o.forced) != 2 || o.forced[0] != &b.fut || o.forced[1] != &a.fut {
		t.Fatalf("Wait = %d, forced %v; want 70 and b then a", got, o.forced)
	}
	// A resolved future no longer reaches its owner.
	ra.Wait()
	if len(o.forced) != 2 {
		t.Fatalf("resolved future forced its owner again: %d forces", len(o.forced))
	}
	// Init on a record and Pending on its field allocate nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		a.fut.Init(o)
		_ = Pending(&a.fut)
	}); allocs != 0 {
		t.Errorf("Init+Pending allocates %v, want 0", allocs)
	}
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	f := NewFuture(nil)
	f.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double resolve did not panic")
		}
	}()
	f.Resolve(2)
}

func TestFutureForceWithoutResolvePanics(t *testing.T) {
	f := NewFuture(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("force that fails to resolve did not panic")
		}
	}()
	f.Force()
}

func TestDeferredMax(t *testing.T) {
	if got := Done(10).DeferredMax(20).Wait(); got != 20 {
		t.Errorf("resolved below floor: %d", got)
	}
	if got := Done(30).DeferredMax(20).Wait(); got != 30 {
		t.Errorf("resolved above floor: %d", got)
	}
	// A pending future passes through unchanged (the floor is dominated
	// by the outstanding fill).
	var f *Future
	f = NewFuture(func() { f.Resolve(500) })
	if got := Pending(f).DeferredMax(20).Wait(); got != 500 {
		t.Errorf("pending deferred max = %d", got)
	}
	// The floor is dropped, not applied when the future resolves: one that
	// resolves below it still answers with its own cycle.
	var low *Future
	low = NewFuture(func() { low.Resolve(5) })
	if got := Pending(low).DeferredMax(20).Wait(); got != 5 {
		t.Errorf("pending deferred max resolving below the floor = %d, want 5", got)
	}
}

// fixedOwner resolves every future it is forced with at its own cycle.
type fixedOwner uint64

func (c *fixedOwner) Force(f *Future) { f.Resolve(uint64(*c)) }

func TestOffset(t *testing.T) {
	if got := Done(10).Offset(5).Wait(); got != 15 {
		t.Errorf("resolved offset = %d, want 15", got)
	}
	at := fixedOwner(70)
	var inner Future
	inner.Init(&at)
	r := Pending(&inner)
	if same := r.Offset(0); same != r {
		t.Error("zero offset did not return the result unchanged")
	}
	off := r.Offset(30)
	if _, ok := off.Peek(); ok {
		t.Fatal("offset of a pending result is resolved before it is forced")
	}
	if got := off.Wait(); got != 100 || !inner.Resolved() {
		t.Fatalf("offset Wait = %d (inner resolved %v), want 100 and the inner request forced", got, inner.Resolved())
	}
	if got, ok := off.Peek(); !ok || got != 100 {
		t.Fatalf("offset Peek after Wait = %d,%v, want 100,true", got, ok)
	}
}

// TestHotPathOffsetAllocatesOnce: offsetting a pending result, as a NUMA
// remote read does, allocates exactly one object, where a closure-backed
// future costs three (the captured future, the closure and the Future).
func TestHotPathOffsetAllocatesOnce(t *testing.T) {
	at := fixedOwner(70)
	var inner Future
	var got uint64
	allocs := testing.AllocsPerRun(100, func() {
		inner.Init(&at)
		got = Pending(&inner).Offset(30).Wait()
	})
	if allocs != 1 || got != 100 {
		t.Errorf("pending Offset allocates %v and completes at %d, want exactly 1 and 100", allocs, got)
	}
}
