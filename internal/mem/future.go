package mem

// Future is the eventually-known completion time of a memory request whose
// scheduling depends on other requests that may not have arrived yet (DRAM
// requests under FR-FCFS). Its owner (the memory controller) advances its
// scheduler until the request completes when the future is forced. A nil
// owner means resolved: a Future is pending only after Init or NewFuture,
// and the zero value reads as resolved at cycle 0.
type Future struct {
	done  uint64
	owner Forcer
}

// Forcer is the owner of pending futures. Force runs the owner's scheduler
// until f is resolved. Storing a pointer in an interface does not allocate,
// so an owner that implements Forcer on a pointer type adds nothing to the
// cost of a pending request; where the Futures live is up to the owner.
type Forcer interface {
	Force(f *Future)
}

// Init makes f an unresolved future forced through owner.
func (f *Future) Init(owner Forcer) { *f = Future{owner: owner} }

// forceFunc adapts a callback to Forcer.
type forceFunc func()

func (fn forceFunc) Force(*Future) { fn() }

// NewFuture returns an unresolved future whose Force drains via the given
// callback. The callback must leave the future resolved.
func NewFuture(force func()) *Future {
	f := new(Future)
	f.Init(forceFunc(force))
	return f
}

// Resolve records the completion cycle. Resolving twice is a bug in the
// owner and panics.
func (f *Future) Resolve(cycle uint64) {
	if f.owner == nil {
		panic("mem: future resolved twice")
	}
	f.done = cycle
	f.owner = nil
}

// Resolved reports whether the completion time is known.
func (f *Future) Resolved() bool { return f.owner == nil }

// Force blocks (by running the owner's scheduler) until the completion time
// is known, then returns it.
func (f *Future) Force() uint64 {
	if f.owner != nil {
		f.owner.Force(f)
		if f.owner != nil {
			panic("mem: force did not resolve future")
		}
	}
	return f.done
}

// Result is the outcome of a memory access: either an already-known
// completion cycle or a pending Future.
type Result struct {
	cycle uint64
	fut   *Future
}

// Done returns a resolved Result.
func Done(cycle uint64) Result { return Result{cycle: cycle} }

// Pending returns a Result backed by a future.
func Pending(f *Future) Result { return Result{fut: f} }

// Peek returns the completion cycle if it is known without forcing.
//
//xmem:statsneutral
func (r Result) Peek() (uint64, bool) {
	if r.fut == nil {
		return r.cycle, true
	}
	if r.fut.Resolved() {
		// Force on a resolved future is a pure read: Resolve cleared the
		// owner, so no scheduler work can run from here.
		return r.fut.Force(), true //xmem:stats-ok Force after Resolved() returns the stored cycle; Resolve nilled the owner
	}
	return 0, false
}

// Wait forces the result and returns the completion cycle.
func (r Result) Wait() uint64 {
	if r.fut == nil {
		return r.cycle
	}
	return r.fut.Force()
}

// DeferredMax returns max(r, floor) when r is already known. A pending r
// passes through unchanged: the floor is dropped, so the future's cycle is
// the answer even when it resolves below floor. Used for hits on in-flight
// lines, where the lookup latency is negligible next to the outstanding
// fill.
func (r Result) DeferredMax(floor uint64) Result {
	if c, ok := r.Peek(); ok {
		if c < floor {
			return Done(floor)
		}
		return Done(c)
	}
	return r
}

// Offset returns a Result whose completion is delta cycles after r's —
// used by interconnect models that add fixed latency to a pending memory
// response. A pending r costs one allocation: the offsetFuture.
func (r Result) Offset(delta uint64) Result {
	if delta == 0 {
		return r
	}
	if c, ok := r.Peek(); ok {
		return Done(c + delta)
	}
	o := &offsetFuture{inner: r.fut, delta: delta}
	o.Init(o)
	return Pending(&o.Future)
}

// offsetFuture completes delta cycles after inner. It is its own Forcer, so
// the future, the pending request it waits on and the latency live in one
// object.
type offsetFuture struct {
	Future
	inner *Future
	delta uint64
}

// Force implements Forcer.
func (o *offsetFuture) Force(*Future) { o.Resolve(o.inner.Force() + o.delta) }
