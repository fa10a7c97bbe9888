// Package dram models a DDR3-like main memory: channels, ranks, and banks
// with open-row policy, FR-FCFS scheduling [84], write queues, data-bus
// bandwidth accounting, and a set of physical address-mapping schemes
// (the seven DRAMSim2-style schemes plus the two permutation-based schemes
// of [106, 107] that the paper's strengthened baseline draws from, §6.3).
//
// The controller is lazily event-driven: requests arrive time-stamped and
// are scheduled — with genuine queue-visible FR-FCFS reordering — only when
// a completion is demanded (or a queue fills), which lets the simulator's
// core model overlap misses without a global cycle loop.
package dram

import (
	"fmt"

	"xmem/internal/mem"
)

// Geometry describes the physical organization of main memory.
type Geometry struct {
	// Channels is the number of independent channels.
	Channels int
	// RanksPerChannel is the number of ranks on each channel.
	RanksPerChannel int
	// BanksPerRank is the number of banks in each rank.
	BanksPerRank int
	// RowBytes is the row-buffer size of one bank.
	RowBytes uint64
	// CapacityBytes is the total physical capacity.
	CapacityBytes uint64
}

// DefaultGeometry is the paper's Table 3 configuration: DDR3, 2 channels,
// 1 rank/channel, 8 banks/rank, with 8 KB rows and 8 GB capacity.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        8 << 10,
		CapacityBytes:   8 << 30,
	}
}

// MaxBanksPerChannel bounds RanksPerChannel*BanksPerRank: the scheduler
// marks a channel's banks in one uint64.
const MaxBanksPerChannel = 64

// Validate checks that every field is a positive power of two where needed
// and that a channel has at most 64 banks.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.Channels&(g.Channels-1) != 0 {
		return fmt.Errorf("dram: channels = %d, want positive power of two", g.Channels)
	}
	if g.RanksPerChannel <= 0 || g.RanksPerChannel&(g.RanksPerChannel-1) != 0 {
		return fmt.Errorf("dram: ranks = %d, want positive power of two", g.RanksPerChannel)
	}
	if g.BanksPerRank <= 0 || g.BanksPerRank&(g.BanksPerRank-1) != 0 {
		return fmt.Errorf("dram: banks = %d, want positive power of two", g.BanksPerRank)
	}
	if n := g.BanksPerChannel(); n > MaxBanksPerChannel {
		return fmt.Errorf("dram: %d ranks x %d banks = %d banks per channel, limit %d",
			g.RanksPerChannel, g.BanksPerRank, n, MaxBanksPerChannel)
	}
	if g.RowBytes < mem.LineBytes || g.RowBytes&(g.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row bytes = %d, want power of two >= line size", g.RowBytes)
	}
	if g.CapacityBytes == 0 || g.CapacityBytes&(g.CapacityBytes-1) != 0 {
		return fmt.Errorf("dram: capacity = %d, want power of two", g.CapacityBytes)
	}
	return nil
}

// TotalBanks returns the number of banks across all channels and ranks.
func (g Geometry) TotalBanks() int {
	return g.Channels * g.RanksPerChannel * g.BanksPerRank
}

// BanksPerChannel returns ranks*banks for one channel.
func (g Geometry) BanksPerChannel() int { return g.RanksPerChannel * g.BanksPerRank }

// RowsPerBank returns the number of rows each bank holds.
func (g Geometry) RowsPerBank() uint64 {
	return g.CapacityBytes / (uint64(g.TotalBanks()) * g.RowBytes)
}

// Timing holds DRAM timing parameters expressed in CPU cycles.
type Timing struct {
	// CAS is the column access latency (row already open).
	CAS uint64
	// RCD is row-to-column delay (activate before column access).
	RCD uint64
	// RP is the row precharge latency (close the open row).
	RP uint64
	// RAS is the minimum time a row must stay open after activation.
	RAS uint64
	// Burst is the data-bus occupancy of one 64-byte line transfer; it
	// sets the channel bandwidth: 64 B / (Burst / cpuHz).
	Burst uint64
	// WritePenalty is added to every write command's service time. Zero
	// for DRAM; large for NVM-style memories with asymmetric writes
	// (Table 1, hybrid-memory placement).
	WritePenalty uint64
}

// CPUHz is the modelled core frequency (Table 3: 3.6 GHz).
const CPUHz = 3.6e9

// DefaultTiming returns DDR3-1066 (CL7-7-7) timings converted to 3.6 GHz
// CPU cycles: one 533 MHz DRAM cycle ≈ 6.75 CPU cycles. The burst of 4 DRAM
// cycles (BL8, double data rate) gives 64 B / 27 cycles ≈ 8.5 GB/s per
// channel — 17 GB/s over the two channels of Table 3.
func DefaultTiming() Timing {
	return Timing{
		CAS:   47, // 7 * 6.75
		RCD:   47,
		RP:    47,
		RAS:   135, // 20 DRAM cycles
		Burst: 27,  // 4 DRAM cycles
	}
}

// WithBandwidthPerCore returns a copy of t with the burst time scaled so
// that the aggregate channel bandwidth equals bytesPerSec×cores (used by the
// Figure 6 sweep over 2/1/0.5 GB/s per core).
func (t Timing) WithBandwidthPerCore(bytesPerSec float64, cores, channels int) Timing {
	total := bytesPerSec * float64(cores)
	perChannel := total / float64(channels)
	burst := float64(mem.LineBytes) * CPUHz / perChannel
	if burst < 1 {
		burst = 1
	}
	t.Burst = uint64(burst + 0.5)
	return t
}

// ChannelBandwidthBytesPerSec returns the peak data bandwidth of one channel.
func (t Timing) ChannelBandwidthBytesPerSec() float64 {
	return float64(mem.LineBytes) * CPUHz / float64(t.Burst)
}

// NVMTiming returns phase-change-memory-like timings relative to DRAM:
// roughly 2× read latency, an order of magnitude costlier writes, and half
// the per-channel bandwidth — the asymmetry the hybrid-memory placement use
// case of Table 1 manages.
func NVMTiming() Timing {
	d := DefaultTiming()
	return Timing{
		CAS:          2 * d.CAS,
		RCD:          3 * d.RCD,
		RP:           2 * d.RP,
		RAS:          2 * d.RAS,
		Burst:        2 * d.Burst,
		WritePenalty: 10 * d.CAS,
	}
}
