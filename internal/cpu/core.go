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

// Core is the timing model. It is not safe for concurrent use.
type Core struct {
	cfg Config

	instr     uint64 // instructions issued so far
	nextIssue uint64 // cycle the next instruction issues at
	frac      int    // instructions already issued in cycle nextIssue

	rob []robEntry // in-flight memory ops, oldest first (in-order commit)
	lq  []mem.Result
	sq  []mem.Result

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
	return &Core{cfg: cfg}
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
	for len(c.rob) > 0 {
		done, ok := c.rob[0].res.Peek()
		if !ok || done > c.nextIssue {
			return
		}
		c.rob = c.rob[1:]
	}
}

func drainQueue(q []mem.Result, now uint64) []mem.Result {
	for len(q) > 0 {
		if done, ok := q[0].Peek(); ok && done <= now {
			q = q[1:]
			continue
		}
		return q
	}
	return q
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
	for len(c.rob) > 0 && c.instr-c.rob[0].instr >= uint64(c.cfg.ROBSize) {
		c.stats.ROBStallCycles += c.stallUntil(c.rob[0].res.Wait())
		c.rob = c.rob[1:]
	}

	// Load/store queue occupancy.
	q := &c.lq
	limit := c.cfg.LQSize
	if !isLoad {
		q = &c.sq
		limit = c.cfg.SQSize
	}
	*q = drainQueue(*q, c.nextIssue)
	for len(*q) >= limit {
		c.stats.LSQStallCycles += c.stallUntil((*q)[0].Wait())
		*q = (*q)[1:]
		*q = drainQueue(*q, c.nextIssue)
	}

	res := access(c.nextIssue)
	c.rob = append(c.rob, robEntry{instr: c.instr, res: res})
	*q = append(*q, res)

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

// Stats returns the counters; Cycles is valid after Finish.
func (c *Core) Stats() Stats { return c.stats }
