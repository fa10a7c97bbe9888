// Package mem defines the fundamental memory-system types shared by every
// simulated component: addresses, access kinds, cache-line geometry, and the
// request records that flow between the core, the caches, and DRAM.
package mem

import "fmt"

// Addr is a byte address, virtual or physical depending on context.
type Addr uint64

// Line geometry. All caches and the DRAM model operate on 64-byte lines.
const (
	LineBytes = 64
	LineShift = 6
)

// PageBytes is the virtual-memory page size used by the OS layer.
const (
	PageBytes = 4096
	PageShift = 12
)

// LineAddr returns the line-aligned address containing a.
func LineAddr(a Addr) Addr { return a &^ (LineBytes - 1) }

// LineIndex returns the line number of a (address divided by the line size).
func LineIndex(a Addr) uint64 { return uint64(a) >> LineShift }

// PageAddr returns the page-aligned address containing a.
func PageAddr(a Addr) Addr { return a &^ (PageBytes - 1) }

// PageIndex returns the page number of a.
func PageIndex(a Addr) uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of a within its page.
func PageOffset(a Addr) uint64 { return uint64(a) & (PageBytes - 1) }

// AccessKind distinguishes the operations a request can perform.
type AccessKind uint8

const (
	// Read is a demand load.
	Read AccessKind = iota
	// Write is a demand store.
	Write
	// Writeback is a dirty eviction travelling down the hierarchy.
	Writeback
	// Prefetch is a speculative read issued by a prefetcher.
	Prefetch
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Writeback:
		return "writeback"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// IsDemand reports whether the access was issued directly by the program
// (as opposed to a prefetcher or a writeback).
func (k AccessKind) IsDemand() bool { return k == Read || k == Write }

// Cycles is a duration in CPU cycles.
type Cycles = uint64
