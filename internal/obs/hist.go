package obs

import (
	"fmt"
	"math/bits"

	"xmem/internal/core"
)

// histBuckets is the fixed log2 bucket count: bucket i holds values in
// [2^(i-1), 2^i), which covers any plausible cycle latency.
const histBuckets = 40

// Histogram accumulates latencies in fixed log2 buckets. It is the
// simulator's one latency histogram: the DRAM controller keeps its
// demand-read latencies in one (dram.Stats.ReadLatency, Figure 8's p95),
// and the metrics report's latency section is built from them. One Observe
// is a handful of arithmetic ops, cheap enough to run on every demand
// access when metrics are on.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average value.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest observed value.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound of the p-th percentile (p in [0,100]):
// the upper edge of the log2 bucket containing it, capped at the true max.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(p / 100 * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			edge := uint64(1)<<uint(i) - 1
			if edge > h.max {
				edge = h.max
			}
			return edge
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary exports the histogram under name for the report's latency section.
func (h *Histogram) Summary(name string) HistSummary {
	s := HistSummary{
		Name:  name,
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		Max:   h.max,
	}
	// Trim trailing empty buckets; the fixed bucket edges make the
	// truncated form lossless.
	last := -1
	for i, n := range h.buckets {
		if n > 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), h.buckets[:last+1]...)
	}
	return s
}

// HistSummary is one histogram in exported form: the p50/p95/p99 upper
// bounds plus the raw log2 buckets (bucket i covers [2^(i-1), 2^i),
// trailing zeros trimmed).
type HistSummary struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Mean    float64  `json:"mean"`
	P50     uint64   `json:"p50"`
	P95     uint64   `json:"p95"`
	P99     uint64   `json:"p99"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// AtomLatency is one atom's DRAM demand-service latency distribution; the
// embedded summary's Name carries the atom's library name.
type AtomLatency struct {
	ID core.AtomID `json:"id"`
	HistSummary
}

// LatencyReport is the report's optional latency section: per-layer service
// latencies (l1d/l2/l3 hit service, dram/nvm demand-read service, prefetch
// lead time) and per-atom DRAM service latencies.
type LatencyReport struct {
	Layers  []HistSummary `json:"layers"`
	PerAtom []AtomLatency `json:"perAtom,omitempty"`
}

// checkSummary validates one exported histogram (shared by the layer and
// per-atom checks in ValidateJSON).
func checkSummary(what string, s *HistSummary) error {
	if s.P50 > s.P95 || s.P95 > s.P99 {
		return fmt.Errorf("obs: %s: percentiles not monotonic (p50 %d, p95 %d, p99 %d)", what, s.P50, s.P95, s.P99)
	}
	if s.P99 > s.Max {
		return fmt.Errorf("obs: %s: p99 %d above max %d", what, s.P99, s.Max)
	}
	if len(s.Buckets) > histBuckets {
		return fmt.Errorf("obs: %s: %d buckets, format has %d", what, len(s.Buckets), histBuckets)
	}
	var sum uint64
	for _, n := range s.Buckets {
		sum += n
	}
	if len(s.Buckets) > 0 && sum != s.Count {
		return fmt.Errorf("obs: %s: bucket sum %d != count %d", what, sum, s.Count)
	}
	return nil
}
