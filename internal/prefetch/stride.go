// Package prefetch implements the prefetchers of the evaluation: the
// baseline multi-stride prefetcher at L3 (Table 3, [33]) and the XMem-guided
// prefetcher of §5.2(4), which prefetches within pinned atoms according to
// their expressed access pattern.
//
// Prefetchers queue their requests; the machine drains the queue into the
// cache between program accesses, which keeps the cache access path
// non-reentrant.
package prefetch

import (
	"xmem/internal/mem"
)

// Request is a queued prefetch.
type Request struct {
	Addr mem.Addr
	At   uint64
	PC   mem.Addr
}

// Stats counts prefetcher activity.
type Stats struct {
	// Trained counts observations that matched a confirmed stride.
	Trained uint64
	// Issued counts queued prefetch requests.
	Issued uint64
}

// MultiStride is a PC-indexed stride prefetcher with a fixed number of
// tracking entries (Table 3 uses 16 strides). Each entry follows the classic
// two-confidence scheme: a stride must repeat before prefetches are issued.
type MultiStride struct {
	entries int
	degree  int
	table   []strideEntry
	queue   []Request
	stats   Stats
	clock   uint64 // LRU timestamp source
}

type strideEntry struct {
	valid    bool
	pc       mem.Addr
	lastAddr mem.Addr
	stride   int64
	conf     int
	lastUse  uint64
}

// confThreshold is the number of consecutive matching strides required
// before prefetching begins.
const confThreshold = 2

// NewMultiStride returns a stride prefetcher with the given table size and
// prefetch degree (lines issued per trained access). Zero values select the
// Table 3 configuration: 16 entries, degree 2.
func NewMultiStride(entries, degree int) *MultiStride {
	if entries <= 0 {
		entries = 16
	}
	if degree <= 0 {
		degree = 2
	}
	return &MultiStride{entries: entries, degree: degree, table: make([]strideEntry, entries)}
}

// Stats returns the counters.
func (p *MultiStride) Stats() Stats { return p.stats }

// Observe trains the prefetcher on a demand access.
func (p *MultiStride) Observe(pa, pc mem.Addr, at uint64, miss bool) {
	p.clock++
	e := p.lookup(pc)
	if e == nil {
		e = p.victim()
		*e = strideEntry{valid: true, pc: pc, lastAddr: pa, lastUse: p.clock}
		return
	}
	e.lastUse = p.clock
	stride := int64(pa) - int64(e.lastAddr)
	e.lastAddr = pa
	if stride == 0 {
		return
	}
	if stride == e.stride {
		if e.conf < confThreshold {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		return
	}
	if e.conf < confThreshold {
		return
	}
	p.stats.Trained++
	for k := 1; k <= p.degree; k++ {
		next := int64(pa) + stride*int64(k)
		if next < 0 {
			break
		}
		p.enqueue(Request{Addr: mem.Addr(next), At: at, PC: pc})
	}
}

func (p *MultiStride) lookup(pc mem.Addr) *strideEntry {
	for i := range p.table {
		if p.table[i].valid && p.table[i].pc == pc {
			return &p.table[i]
		}
	}
	return nil
}

func (p *MultiStride) victim() *strideEntry {
	best := 0
	for i := range p.table {
		if !p.table[i].valid {
			return &p.table[i]
		}
		if p.table[i].lastUse < p.table[best].lastUse {
			best = i
		}
	}
	return &p.table[best]
}

func (p *MultiStride) enqueue(r Request) {
	p.queue = append(p.queue, r)
	p.stats.Issued++
}

// Drain returns and clears the queued prefetches. The queue keeps its
// backing array, so the returned slice is valid only until the next
// Observe.
func (p *MultiStride) Drain() []Request {
	q := p.queue
	p.queue = p.queue[:0]
	return q
}
