package workload

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// HashJoinConfig parameterizes the partitioned hash join of §5.1 ("hash-join
// partitioning in databases" is the paper's first example of a
// statically-tuned cache optimization).
type HashJoinConfig struct {
	// BuildRows and ProbeRows are the relation sizes in tuples.
	BuildRows int
	ProbeRows int
	// PartitionBytes is the hash-table partition size the code was tuned
	// for — the analogue of the tile-size knob.
	PartitionBytes uint64
}

// Hash-join layout constants.
const (
	// tupleBytes is one (key, payload) tuple.
	tupleBytes = 16
	// bucketBytes is one hash-table bucket (key, payload, next pointer).
	bucketBytes = 24
)

// HashJoin is the radix-partitioned hash join: both relations are first
// partitioned (a streaming pass), then each build partition's hash table is
// built and probed while it — the high-reuse working set — is mapped to a
// pinned atom. The partition size is the static tuning knob exactly as in
// tiling: when the cache turns out smaller than assumed, probes of the
// partition hash table thrash (§5.1).
func HashJoin(cfg HashJoinConfig) Workload {
	tableAttrs := core.Attributes{
		Type:      core.TypeInt64,
		Pattern:   core.PatternIrregular, // hash-ordered, repeatable
		RW:        core.ReadWrite,
		Intensity: 220,
		Reuse:     255,
	}
	relAttrs := core.Attributes{
		Type:        core.TypeInt64,
		Pattern:     core.PatternRegular,
		StrideBytes: tupleBytes,
		RW:          core.ReadOnly,
		Intensity:   120,
		Reuse:       0, // streamed once per phase
	}
	declare := func(lib *core.Lib) {
		lib.CreateAtom("join.hashTable", tableAttrs)
		lib.CreateAtom("join.build", relAttrs)
		lib.CreateAtom("join.probe", relAttrs)
	}
	return Workload{
		Name:    fmt.Sprintf("hashjoin/b%d/p%d/part%d", cfg.BuildRows, cfg.ProbeRows, cfg.PartitionBytes),
		Declare: declare,
		Run: func(p Program) {
			lib := p.Lib()
			tableAtom := lib.CreateAtom("join.hashTable", tableAttrs)
			buildAtom := lib.CreateAtom("join.build", relAttrs)
			probeAtom := lib.CreateAtom("join.probe", relAttrs)

			build := p.Malloc("buildRel", uint64(cfg.BuildRows)*tupleBytes, buildAtom)
			probe := p.Malloc("probeRel", uint64(cfg.ProbeRows)*tupleBytes, probeAtom)

			buckets := int(cfg.PartitionBytes / bucketBytes)
			if buckets < 16 {
				buckets = 16
			}
			table := p.Malloc("hashTable", uint64(buckets)*bucketBytes, tableAtom)

			lib.AtomMap(buildAtom, build, uint64(cfg.BuildRows)*tupleBytes)
			lib.AtomActivate(buildAtom)
			lib.AtomMap(probeAtom, probe, uint64(cfg.ProbeRows)*tupleBytes)
			lib.AtomActivate(probeAtom)

			// The partition count follows from the tuning knob: each build
			// partition's table must fit PartitionBytes.
			partitions := (cfg.BuildRows*bucketBytes + int(cfg.PartitionBytes) - 1) / int(cfg.PartitionBytes)
			if partitions < 1 {
				partitions = 1
			}
			rowsPerPart := (cfg.BuildRows + partitions - 1) / partitions
			probePerPart := (cfg.ProbeRows + partitions - 1) / partitions

			hash := func(key int) int {
				h := uint64(key) * 0x9E3779B97F4A7C15
				return int(h>>33) % buckets
			}

			for part := 0; part < partitions; part++ {
				// The hash table is reused intensely within a partition
				// and worthless outside it: the classic MAP -> work ->
				// UNMAP phase pattern (§5.2(1)).
				lib.AtomMap(tableAtom, table, uint64(buckets)*bucketBytes)
				lib.AtomActivate(tableAtom)

				// Build: stream this partition of the build relation,
				// insert into the table.
				lo := part * rowsPerPart
				hi := min(lo+rowsPerPart, cfg.BuildRows)
				for r := lo; r < hi; r++ {
					p.Load(0, build+mem.Addr(r*tupleBytes))
					b := hash(r * 31)
					p.Load(1, table+mem.Addr(b*bucketBytes))
					p.Store(2, table+mem.Addr(b*bucketBytes))
					p.Work(6)
				}
				// Probe: stream this partition of the probe relation,
				// look up (and occasionally chase one chain link).
				plo := part * probePerPart
				phi := min(plo+probePerPart, cfg.ProbeRows)
				for r := plo; r < phi; r++ {
					p.Load(3, probe+mem.Addr(r*tupleBytes))
					b := hash(r * 131)
					p.Load(4, table+mem.Addr(b*bucketBytes))
					if r%7 == 0 { // chain collision
						p.Load(5, table+mem.Addr(((b+1)%buckets)*bucketBytes))
					}
					p.Work(8)
				}

				lib.AtomUnmap(tableAtom, table, uint64(buckets)*bucketBytes)
			}
			lib.AtomDeactivate(tableAtom)
			lib.AtomDeactivate(buildAtom)
			lib.AtomDeactivate(probeAtom)
		},
	}
}
