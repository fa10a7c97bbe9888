package dram

import (
	"fmt"

	"xmem/internal/mem"
)

// Add accumulates o's counters into s: the combined view of several
// controllers.
func (s *Stats) Add(o *Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.DemandReads += o.DemandReads
	s.WriteQueueHits += o.WriteQueueHits
	s.RowHits += o.RowHits
	s.RowEmpty += o.RowEmpty
	s.RowConflicts += o.RowConflicts
	s.DemandReadLatencySum += o.DemandReadLatencySum
	s.WriteLatencySum += o.WriteLatencySum
	s.BusBusy += o.BusBusy
	s.ReadLatency.Merge(&o.ReadLatency)
}

// RegionMemory is a physical memory made of contiguous regions, each served
// by its own controller: the nodes of a NUMA machine, or the DRAM and NVM
// tiers of a hybrid memory. The regions are laid end to end in the order
// given, each spanning its device's capacity. An address belongs to the last
// region that starts at or below it, and reaches that region's controller
// rebased to the region's start. It implements cache.Lower.
//
// Like a Controller, a RegionMemory is not safe for concurrent use.
type RegionMemory struct {
	ctls  []*Controller
	bases []mem.Addr
}

// NewRegionMemory builds one controller per region, in address order.
func NewRegionMemory(regions ...Config) (*RegionMemory, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("dram: region memory with no regions")
	}
	m := &RegionMemory{}
	var base mem.Addr
	for i, cfg := range regions {
		ctl, err := NewController(cfg)
		if err != nil {
			return nil, fmt.Errorf("dram: region %d: %w", i, err)
		}
		m.ctls = append(m.ctls, ctl)
		m.bases = append(m.bases, base)
		base += mem.Addr(cfg.Geometry.CapacityBytes)
	}
	return m, nil
}

// Region returns the index of the region that owns machine physical
// address pa.
func (m *RegionMemory) Region(pa mem.Addr) int {
	i := len(m.bases) - 1
	for i > 0 && pa < m.bases[i] {
		i--
	}
	return i
}

// Base returns the first machine physical address of region i.
func (m *RegionMemory) Base(i int) mem.Addr { return m.bases[i] }

// Controller returns region i's controller.
func (m *RegionMemory) Controller(i int) *Controller { return m.ctls[i] }

// Access implements cache.Lower.
func (m *RegionMemory) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	i := m.Region(pa)
	return m.ctls[i].Access(pa-m.bases[i], kind, at, pc)
}

// DrainAll schedules every region's outstanding requests.
func (m *RegionMemory) DrainAll() {
	for _, c := range m.ctls {
		c.DrainAll()
	}
}

// Stats returns the regions' counters summed.
func (m *RegionMemory) Stats() Stats {
	var s Stats
	for _, c := range m.ctls {
		s.Add(&c.stats)
	}
	return s
}

// SetObserver installs f on every region's controller. Each command's
// address is rebased to a machine physical address before f sees it, so
// attribution works in the address space the caches use.
func (m *RegionMemory) SetObserver(f Observer) {
	for i, c := range m.ctls {
		base := m.bases[i]
		if f == nil || base == 0 {
			c.SetObserver(f)
			continue
		}
		c.SetObserver(func(pa mem.Addr, kind mem.AccessKind, rowHit bool, arrival, done uint64) {
			f(pa+base, kind, rowHit, arrival, done)
		})
	}
}
