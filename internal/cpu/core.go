// Package cpu provides the deterministic, cycle-approximate core timing
// model that stands in for the paper's zsim Westmere-like OOO core
// (Table 3: 3.6 GHz, 4-wide issue, 128-entry ROB, 32-entry LQ and SQ).
//
// The model issues the program's instruction stream at up to IssueWidth
// instructions per cycle and lets memory operations complete out of order
// within an instruction window of ROBSize instructions (with separate
// load/store queue bounds). This captures the two properties that determine
// memory-system results: memory-level parallelism (independent misses
// overlap up to the window and queue limits) and latency hiding (short
// misses disappear under the window). Non-memory instructions are assumed to
// retire without stalling — the standard memory-trace simplification.
package cpu

import (
	"xmem/internal/mem"
)

// Config sizes the core.
type Config struct {
	// IssueWidth is the number of instructions issued per cycle (4).
	IssueWidth int
	// ROBSize is the reorder-buffer capacity in instructions (128).
	ROBSize int
	// LQSize and SQSize bound outstanding loads and stores (32 each).
	LQSize int
	SQSize int
}

// DefaultConfig returns the Table 3 core.
func DefaultConfig() Config {
	return Config{IssueWidth: 4, ROBSize: 128, LQSize: 32, SQSize: 32}
}

// Stats reports what the core executed.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Cycles       uint64
	// ROBStallCycles and LSQStallCycles attribute stall time to the
	// structure that forced the wait.
	ROBStallCycles uint64
	LSQStallCycles uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

type robEntry struct {
	instr uint64
	res   mem.Result
}

// ring is a fixed-capacity FIFO. The window loops in IssueMem pop before
// they push, so occupancy never exceeds size. The buffer is allocated by
// the first push rather than by New, so building a machine costs what it
// did with the growable slices the rings replaced; after that the issue
// path never allocates.
type ring[T any] struct {
	buf  []T // nil until the first push, then size entries
	size int
	head int // index of the oldest entry
	n    int // occupancy
}

func newRing[T any](size int) ring[T] { return ring[T]{size: size} }

func (r *ring[T]) full() bool { return r.n == r.size }

// front returns the oldest entry; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		if r.buf != nil {
			panic("cpu: ring overflow")
		}
		r.buf = make([]T, r.size)
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// reset empties the ring and drops its references to pending futures.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Core is the timing model. It is not safe for concurrent use.
type Core struct {
	cfg Config

	instr     uint64 // instructions issued so far
	nextIssue uint64 // cycle the next instruction issues at
	frac      int    // instructions already issued in cycle nextIssue

	rob ring[robEntry] // in-flight memory ops, oldest first (in-order commit)
	lq  ring[mem.Result]
	sq  ring[mem.Result]

	stats Stats
}

// New returns a core with the given configuration (zero fields take the
// Table 3 defaults).
func New(cfg Config) *Core {
	def := DefaultConfig()
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = def.IssueWidth
	}
	if cfg.ROBSize <= 0 {
		cfg.ROBSize = def.ROBSize
	}
	if cfg.LQSize <= 0 {
		cfg.LQSize = def.LQSize
	}
	if cfg.SQSize <= 0 {
		cfg.SQSize = def.SQSize
	}
	return &Core{cfg: cfg, rob: newRing[robEntry](cfg.ROBSize),
		lq: newRing[mem.Result](cfg.LQSize), sq: newRing[mem.Result](cfg.SQSize)}
}

// Now returns the cycle at which the next instruction would issue.
func (c *Core) Now() uint64 { return c.nextIssue }

// Work issues n non-memory instructions.
func (c *Core) Work(n uint64) {
	c.instr += n
	c.stats.Instructions += n
	total := uint64(c.frac) + n
	c.nextIssue += total / uint64(c.cfg.IssueWidth)
	c.frac = int(total % uint64(c.cfg.IssueWidth))
}

// stallUntil moves the issue point forward to cycle `at`.
func (c *Core) stallUntil(at uint64) uint64 {
	if at <= c.nextIssue {
		return 0
	}
	stall := at - c.nextIssue
	c.nextIssue = at
	c.frac = 0
	return stall
}

// retire pops ROB entries that have completed and committed by nextIssue.
func (c *Core) retire() {
	for c.rob.n > 0 {
		done, ok := c.rob.front().res.Peek()
		if !ok || done > c.nextIssue {
			return
		}
		c.rob.pop()
	}
}

// drainQueue pops the load or store queue's oldest entries that have
// completed by now.
func drainQueue(q *ring[mem.Result], now uint64) {
	for q.n > 0 {
		if done, ok := q.front().Peek(); !ok || done > now {
			return
		}
		q.pop()
	}
}

// IssueMem issues one memory instruction. The access callback performs the
// hierarchy access at the cycle the instruction actually issues and returns
// its completion. isLoad selects the LQ or SQ.
func (c *Core) IssueMem(isLoad bool, access func(at uint64) mem.Result) {
	c.instr++
	c.stats.Instructions++
	if isLoad {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}

	// ROB window: the oldest in-flight op must be within ROBSize
	// instructions of this one.
	c.retire()
	for c.rob.n > 0 && c.instr-c.rob.front().instr >= uint64(c.cfg.ROBSize) {
		c.stats.ROBStallCycles += c.stallUntil(c.rob.front().res.Wait())
		c.rob.pop()
	}

	// Load/store queue occupancy.
	q := &c.lq
	if !isLoad {
		q = &c.sq
	}
	drainQueue(q, c.nextIssue)
	for q.full() {
		c.stats.LSQStallCycles += c.stallUntil(q.front().Wait())
		q.pop()
		drainQueue(q, c.nextIssue)
	}

	res := access(c.nextIssue)
	c.rob.push(robEntry{instr: c.instr, res: res})
	q.push(res)

	// Issuing the instruction consumes an issue slot.
	c.frac++
	if c.frac >= c.cfg.IssueWidth {
		c.frac = 0
		c.nextIssue++
	}
}

// Finish retires everything outstanding and returns the final cycle count.
func (c *Core) Finish() uint64 {
	end := c.nextIssue
	for ; c.rob.n > 0; c.rob.pop() {
		if d := c.rob.front().res.Wait(); d > end {
			end = d
		}
	}
	c.rob.reset()
	c.lq.reset()
	c.sq.reset()
	c.nextIssue = end
	c.stats.Cycles = end
	return end
}

// Stats returns the counters; Cycles is valid after Finish.
func (c *Core) Stats() Stats { return c.stats }
