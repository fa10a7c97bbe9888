// Package obs is the simulator's observability layer: a zero-dependency
// metrics registry, an epoch sampler, and a per-atom attribution table,
// with JSON, CSV, and Chrome trace_event exporters.
//
// Design constraints (see DESIGN.md, "Observability"):
//
//   - Zero hot-path cost when disabled. Subsystems do not increment obs
//     counters; they register *sources* — closures reading the counters
//     they already keep — and the sampler reads them only at epoch
//     boundaries. A machine with metrics off carries a single nil check.
//
//   - Counter names follow the `layer.component.metric` scheme
//     (e.g. "cache.l3.demand_misses", "dram.ctl.row_hits"); Register
//     panics on malformed or duplicate names, so a typo is caught at
//     machine-assembly time, not in a dashboard three weeks later.
//
//   - Attribution is keyed by core.AtomID — the Atom is the semantic unit
//     the paper argues the hierarchy should reason about, so it is also
//     the unit telemetry is attributed to.
package obs

import (
	"fmt"
	"strings"
)

// Source reads a monotonically non-decreasing counter owned by a subsystem.
type Source func() uint64

// GaugeSource reads an instantaneous value (may rise and fall).
type GaugeSource func() float64

// entryKind distinguishes counters from gauges in exports.
type entryKind uint8

const (
	kindCounter entryKind = iota
	kindGauge
)

type entry struct {
	name string
	kind entryKind
	ctr  Source
	gau  GaugeSource
}

// Registry holds the named metric sources of one machine. It is not safe
// for concurrent use; the simulator is single-threaded per machine.
type Registry struct {
	entries []entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// validName enforces the `layer.component.metric` naming scheme: at least
// two dot-separated segments of [a-z0-9_].
func validName(name string) bool {
	segs := strings.Split(name, ".")
	if len(segs) < 2 {
		return false
	}
	for _, s := range segs {
		if s == "" {
			return false
		}
		for _, r := range s {
			if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_') {
				return false
			}
		}
	}
	return true
}

func (r *Registry) add(name string, e entry) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match layer.component.metric", name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Counter registers a cumulative counter source under name. It panics on a
// duplicate or malformed name.
func (r *Registry) Counter(name string, f Source) {
	r.add(name, entry{name: name, kind: kindCounter, ctr: f})
}

// Gauge registers an instantaneous gauge source under name. It panics on a
// duplicate or malformed name.
func (r *Registry) Gauge(name string, f GaugeSource) {
	r.add(name, entry{name: name, kind: kindGauge, gau: f})
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.name
	}
	return out
}

// Snapshot reads every source, in registration order.
func (r *Registry) Snapshot() []float64 {
	out := make([]float64, len(r.entries))
	for i, e := range r.entries {
		if e.kind == kindCounter {
			out[i] = float64(e.ctr())
		} else {
			out[i] = e.gau()
		}
	}
	return out
}

// group returns the `layer` segment of a metric name.
func group(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}
