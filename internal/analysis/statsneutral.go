package analysis

import (
	"go/types"
	"strings"

	"xmem/internal/analysis/ssalite"
)

// StatsNeutral is the static twin of TestSpanTimingNeutral: it proves that
// functions annotated //xmem:statsneutral — the Peek family, span
// completion sweeps, span stage recorders — transitively mutate no
// stats/counter/LRU state. A statsneutral function must be invisible to
// the measurement it serves: calling it any number of times may not change
// AMUStats/LibStats counters, ALB recency or hit/miss accounting, AAM
// mapping state, cache stats, or the obs registry — and it may not send on
// channels or start goroutines (either would let mutation escape the
// prover's sight).
//
// The proof walks the static call graph from each annotated root and flags
// every store whose destination chain touches a tracked type
// (statsDenyTypes below), every channel send and go statement, and every
// call it cannot resolve. Calls into packages without source (the standard
// library) are auto-proven when no receiver, parameter, or result type can
// transitively reach a tracked type, a function value, or an interface —
// strings.ToLower cannot touch an AMUStats it is never handed — and
// conservatively flagged otherwise.
//
// Escape hatches mirror allocfree: //xmem:stats-ok with a reason, as a
// function-level directive (audited exempt subtree) or a line marker
// (audited site; prunes the walk into a call from that site only).
var StatsNeutral = &Analyzer{
	Name: "statsneutral",
	Doc:  "//xmem:statsneutral functions reaching stats/counter/LRU mutations, sends, or unresolvable calls",
	Run:  runStatsNeutral,
}

// statsDenyTypes are the named types holding stats, counters, or recency
// state a statsneutral function must not store through. The LRU-bearing
// structures (ALB, AAM) are listed whole: any store through them — not
// just to a counter field — changes observable lookup behavior. A store
// is owned by the type it lands in: the AST's bits are an AtomSet, and the
// AAM's chunk counts and the obs atom table's counters and names are
// PerAtom tables, whose growth in PerAtom.At is the store a write through
// the returned pointer is seen by.
var statsDenyTypes = []typeName{
	{"AMUStats", "internal/core"},
	{"LibStats", "internal/core"},
	{"Lib", "internal/core"},
	{"AMU", "internal/core"},
	{"ALB", "internal/core"},
	{"albSlot", "internal/core"},
	{"AAM", "internal/core"},
	{"AtomSet", "internal/core"},
	{"PerAtom", "internal/core"},
	{"GAT", "internal/core"},
	{"Cache", "internal/cache"},
	{"Stats", "internal/cache"},
	{"Registry", "internal/obs"},
	{"AtomTable", "internal/obs"},
	{"Sampler", "internal/obs"},
	{"Histogram", "internal/obs"},
}

func runStatsNeutral(u *Unit) {
	runHotPathProver(u, hotPathChecks{
		root:         "statsneutral",
		hatch:        "stats-ok",
		noSourceWhat: "stats-neutral",
		instr:        statsNeutralInstr,
		noSourceOK:   statsNoSourceOK,
	})
}

func statsNeutralInstr(in ssalite.Instr) string {
	switch in.Kind {
	case ssalite.KindStore:
		for _, owner := range in.Owners {
			if name, bad := namedAmong(owner, statsDenyTypes); bad {
				return "mutates " + name + " state (store to " + in.Path + ")"
			}
		}
	case ssalite.KindSend:
		return "sends on a channel (mutation escapes the neutrality proof)"
	case ssalite.KindGo:
		return "starts a goroutine (mutation escapes the neutrality proof)"
	}
	return ""
}

// statsNoSourceOK auto-proves a callee with no lowered body when its
// signature cannot smuggle tracked state: module-internal functions are
// never auto-proven (their body just was not loaded), and an external
// callee is safe only if no receiver/parameter/result type can reach a
// tracked type, function value, or interface.
func statsNoSourceOK(callee *types.Func) bool {
	if pkg := callee.Pkg(); pkg != nil {
		if p := pkg.Path(); p == "xmem" || strings.HasPrefix(p, "xmem/") {
			return false
		}
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return false
	}
	seen := make(map[types.Type]bool)
	if recv := sig.Recv(); recv != nil && canReachStatsState(recv.Type(), seen) {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if canReachStatsState(sig.Params().At(i).Type(), seen) {
			return false
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if canReachStatsState(sig.Results().At(i).Type(), seen) {
			return false
		}
	}
	return true
}

// canReachStatsState reports whether a value of type t can transitively
// reference tracked state. Interfaces and function types count as reachable
// (the concrete value behind them is unknowable here).
func canReachStatsState(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch v := t.(type) {
	case *types.Named:
		if _, bad := namedAmong(v, statsDenyTypes); bad {
			return true
		}
		return canReachStatsState(v.Underlying(), seen)
	case *types.Alias:
		return canReachStatsState(types.Unalias(t), seen)
	case *types.Pointer:
		return canReachStatsState(v.Elem(), seen)
	case *types.Slice:
		return canReachStatsState(v.Elem(), seen)
	case *types.Array:
		return canReachStatsState(v.Elem(), seen)
	case *types.Map:
		return canReachStatsState(v.Key(), seen) || canReachStatsState(v.Elem(), seen)
	case *types.Chan:
		return canReachStatsState(v.Elem(), seen)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if canReachStatsState(v.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Interface, *types.Signature, *types.TypeParam:
		return true
	}
	return false
}
