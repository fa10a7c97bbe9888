package runner

import (
	"fmt"
	"strings"
	"time"

	"xmem/internal/obs"
)

// publish registers the sweep's timing counters: one per point plus the
// aggregates. All counters are final values captured at publish time (the
// sweep is over), so sources are trivial closures.
//
// Naming: runner.<sweep>.{points_total,points_failed,points_resumed,
// wall_ns_total,elapsed_ns} and runner.<sweep>.point_<key>_wall_ns. The
// sweep speedup is wall_ns_total / elapsed_ns — the sum of per-point times
// over the sweep's wall clock.
func publish[R any](reg *obs.Registry, sweep string, outs []Outcome[R], elapsed time.Duration) {
	prefix := "runner." + metricSegment(sweep)
	// A registry can accumulate several sweeps (xmem-bench runs many per
	// invocation); a repeated sweep name gets an instance suffix instead
	// of panicking the registry's duplicate check.
	base := prefix
	for inst := 2; reg.Has(base + ".points_total"); inst++ {
		base = fmt.Sprintf("%s_%d", prefix, inst)
	}

	var failed, resumed, wallSum uint64
	for _, o := range outs {
		wallSum += uint64(o.Wall)
		if o.Err != "" {
			failed++
		}
		if o.Resumed {
			resumed++
		}
	}
	capture := func(v uint64) obs.Source { return func() uint64 { return v } }
	reg.Counter(base+".points_total", capture(uint64(len(outs))))
	reg.Counter(base+".points_failed", capture(failed))
	reg.Counter(base+".points_resumed", capture(resumed))
	reg.Counter(base+".wall_ns_total", capture(wallSum))
	reg.Counter(base+".elapsed_ns", capture(uint64(elapsed)))
	for _, o := range outs {
		name := base + ".point_" + metricSegment(o.Key) + "_wall_ns"
		for inst := 2; reg.Has(name); inst++ {
			name = fmt.Sprintf("%s.point_%s_%d_wall_ns", base, metricSegment(o.Key), inst)
		}
		reg.Counter(name, capture(uint64(o.Wall)))
	}
}

// metricSegment maps an arbitrary key to one valid metric-name segment
// ([a-z0-9_]+): lowercase, everything else folded to '_'.
func metricSegment(s string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, r := range strings.ToLower(s) {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		if ok {
			b.WriteRune(r)
			lastUnderscore = false
		} else if !lastUnderscore {
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	out := strings.Trim(b.String(), "_")
	if out == "" {
		return "x"
	}
	return out
}
