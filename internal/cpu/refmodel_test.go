package cpu

import (
	"math/rand"
	"testing"

	"xmem/internal/mem"
)

// This file preserves the slice-based instruction window (ROB, LQ and SQ
// popped from the front and appended to) as a test-only reference model.
// The differential test drives it and the ring-buffer Core through
// identical randomized streams and asserts identical issue cycles, stats,
// Finish cycles and future-force order.

type refCore struct {
	cfg Config

	instr     uint64
	nextIssue uint64
	frac      int

	rob []robEntry
	lq  []mem.Result
	sq  []mem.Result

	stats Stats
}

func newRefCore(cfg Config) *refCore { return &refCore{cfg: New(cfg).cfg} }

func (c *refCore) Now() uint64 { return c.nextIssue }

func (c *refCore) Work(n uint64) {
	c.instr += n
	c.stats.Instructions += n
	total := uint64(c.frac) + n
	c.nextIssue += total / uint64(c.cfg.IssueWidth)
	c.frac = int(total % uint64(c.cfg.IssueWidth))
}

func (c *refCore) stallUntil(at uint64) uint64 {
	if at <= c.nextIssue {
		return 0
	}
	stall := at - c.nextIssue
	c.nextIssue = at
	c.frac = 0
	return stall
}

func (c *refCore) retire() {
	for len(c.rob) > 0 {
		done, ok := c.rob[0].res.Peek()
		if !ok || done > c.nextIssue {
			return
		}
		c.rob = c.rob[1:]
	}
}

func refDrainQueue(q []mem.Result, now uint64) []mem.Result {
	for len(q) > 0 {
		if done, ok := q[0].Peek(); ok && done <= now {
			q = q[1:]
			continue
		}
		return q
	}
	return q
}

func (c *refCore) IssueMem(isLoad bool, access func(at uint64) mem.Result) {
	c.instr++
	c.stats.Instructions++
	if isLoad {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}

	c.retire()
	for len(c.rob) > 0 && c.instr-c.rob[0].instr >= uint64(c.cfg.ROBSize) {
		c.stats.ROBStallCycles += c.stallUntil(c.rob[0].res.Wait())
		c.rob = c.rob[1:]
	}

	q := &c.lq
	limit := c.cfg.LQSize
	if !isLoad {
		q = &c.sq
		limit = c.cfg.SQSize
	}
	*q = refDrainQueue(*q, c.nextIssue)
	for len(*q) >= limit {
		c.stats.LSQStallCycles += c.stallUntil((*q)[0].Wait())
		*q = (*q)[1:]
		*q = refDrainQueue(*q, c.nextIssue)
	}

	res := access(c.nextIssue)
	c.rob = append(c.rob, robEntry{instr: c.instr, res: res})
	*q = append(*q, res)

	c.frac++
	if c.frac >= c.cfg.IssueWidth {
		c.frac = 0
		c.nextIssue++
	}
}

func (c *refCore) Finish() uint64 {
	end := c.nextIssue
	for _, e := range c.rob {
		if d := e.res.Wait(); d > end {
			end = d
		}
	}
	c.rob = nil
	c.lq = nil
	c.sq = nil
	c.nextIssue = end
	c.stats.Cycles = end
	return end
}

func (c *refCore) Stats() Stats { return c.stats }

// fakeOwner plays the memory controller for one core: it owns the core's
// pending futures and logs the order they resolve in. A forced future
// resolves alone, or, when it was issued with batch set, together with
// every older future still pending (a FIFO scheduler draining its queue),
// so later Peeks see completions the core never forced.
type fakeOwner struct {
	pending []ownedFuture
	order   []int // op indices in resolution order
}

type ownedFuture struct {
	fut   *mem.Future
	op    int
	done  uint64
	batch bool
}

func (o *fakeOwner) issue(op int, done uint64, batch bool) mem.Result {
	f := new(mem.Future)
	f.Init(o)
	o.pending = append(o.pending, ownedFuture{fut: f, op: op, done: done, batch: batch})
	return mem.Pending(f)
}

func (o *fakeOwner) Force(f *mem.Future) {
	k := 0
	for o.pending[k].fut != f {
		k++
	}
	first := k
	if o.pending[k].batch {
		first = 0
	}
	for i := first; i <= k; i++ {
		if p := o.pending[i]; !p.fut.Resolved() {
			p.fut.Resolve(p.done)
			o.order = append(o.order, p.op)
		}
	}
}

// windowOp is one step of a differential stream.
type windowOp struct {
	work    uint64 // > 0: a batch of non-memory instructions
	finish  bool   // drain the window mid-stream
	load    bool
	lat     uint64
	pending bool // complete through a Future instead of mem.Done
	batch   bool
}

func randomWindowStream(rng *rand.Rand, n int) []windowOp {
	ops := make([]windowOp, n)
	for i := range ops {
		switch r := rng.Intn(100); {
		case r < 15:
			ops[i].work = uint64(1 + rng.Intn(12))
		case r < 16:
			ops[i].finish = true
		default:
			ops[i] = windowOp{
				load:    rng.Intn(3) != 0,
				lat:     uint64(rng.Intn(4)) * uint64(1+rng.Intn(80)),
				pending: rng.Intn(2) == 0,
				batch:   rng.Intn(2) == 0,
			}
		}
	}
	return ops
}

// window is the surface both models share.
type window interface {
	Now() uint64
	Work(n uint64)
	IssueMem(isLoad bool, access func(at uint64) mem.Result)
	Finish() uint64
	Stats() Stats
}

// runWindow drives w through ops and returns the issue cycle of every
// memory op, the Finish cycles, the Now() after every op, and the future
// resolution order.
func runWindow(w window, ops []windowOp) (issue, finishes, now []uint64, order []int) {
	owner := &fakeOwner{}
	for i, op := range ops {
		switch {
		case op.work > 0:
			w.Work(op.work)
		case op.finish:
			finishes = append(finishes, w.Finish())
		default:
			w.IssueMem(op.load, func(at uint64) mem.Result {
				issue = append(issue, at)
				if op.pending {
					return owner.issue(i, at+op.lat, op.batch)
				}
				return mem.Done(at + op.lat)
			})
		}
		now = append(now, w.Now())
	}
	finishes = append(finishes, w.Finish())
	return issue, finishes, now, owner.order
}

func equalSeq[T comparable](a, b []T) (int, bool) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	return min(len(a), len(b)), len(a) == len(b)
}

// TestCoreRingsMatchReference: the ring-buffer window is the slice window
// with its storage changed. Small ROB/LQ/SQ sizes make the rings wrap and
// both stall kinds fire; every observable must match the reference.
func TestCoreRingsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var robStalls, lsqStalls uint64
	for trial := 0; trial < 300; trial++ {
		cfg := Config{
			IssueWidth: 1 + rng.Intn(4),
			ROBSize:    1 + rng.Intn(8),
			LQSize:     1 + rng.Intn(4),
			SQSize:     1 + rng.Intn(4),
		}
		ops := randomWindowStream(rng, 400)
		ref, got := newRefCore(cfg), New(cfg)
		rIssue, rFin, rNow, rOrder := runWindow(ref, ops)
		gIssue, gFin, gNow, gOrder := runWindow(got, ops)
		for _, c := range []struct {
			what string
			ref  []uint64
			got  []uint64
		}{{"issue cycle", rIssue, gIssue}, {"Finish", rFin, gFin}, {"Now", rNow, gNow}} {
			if i, ok := equalSeq(c.ref, c.got); !ok {
				t.Fatalf("trial %d %+v: %s diverges at %d (ref %d values, got %d)", trial, cfg, c.what, i, len(c.ref), len(c.got))
			}
		}
		if i, ok := equalSeq(rOrder, gOrder); !ok {
			t.Fatalf("trial %d %+v: future-force order diverges at %d: ref %v, got %v", trial, cfg, i, rOrder, gOrder)
		}
		if r, g := ref.Stats(), got.Stats(); r != g {
			t.Fatalf("trial %d %+v: stats = %+v, reference %+v", trial, cfg, g, r)
		}
		robStalls += got.Stats().ROBStallCycles
		lsqStalls += got.Stats().LSQStallCycles
	}
	if robStalls == 0 || lsqStalls == 0 {
		t.Fatalf("streams never stalled (ROB %d, LSQ %d cycles): sizes too large to exercise the rings", robStalls, lsqStalls)
	}
}
