package core

import (
	"math/rand"
	"reflect"
	"testing"

	"xmem/internal/mem"
)

// The differential tests in this file are the correctness backbone of the
// allocation-free lookup path: the shipped paged-AAM / index-LRU stack and
// the preserved reference models (refmodel_test.go) are driven through
// identical randomized op streams, asserting identical lookup results,
// hit/miss/eviction/invalidation/flush counters, LRU residency order, and
// victim order at every step.

// diffPages is the confined page universe the streams draw addresses from:
// a dense low region plus a far region that lands in the AAM's overflow map
// (page index >= maxDirectPages), so both directory levels are exercised.
func diffPages() []uint64 {
	pages := make([]uint64, 0, 40)
	for p := uint64(0); p < 32; p++ {
		pages = append(pages, p)
	}
	for p := uint64(0); p < 8; p++ {
		pages = append(pages, maxDirectPages+3*p)
	}
	return pages
}

func randAddr(rng *rand.Rand, pages []uint64) mem.Addr {
	page := pages[rng.Intn(len(pages))]
	return mem.Addr(page<<mem.PageShift | uint64(rng.Intn(mem.PageBytes)))
}

// assertALBEqual compares every observable of the two ALB implementations.
func assertALBEqual(t *testing.T, step int, b *ALB, ref *refALB) {
	t.Helper()
	if b.Len() != ref.Len() {
		t.Fatalf("step %d: Len %d != ref %d", step, b.Len(), ref.Len())
	}
	h, ms := b.Stats()
	if h != ref.hits || ms != ref.misses {
		t.Fatalf("step %d: stats %d/%d != ref %d/%d", step, h, ms, ref.hits, ref.misses)
	}
	if b.invalids != ref.invalids || b.flushes != ref.flushes {
		t.Fatalf("step %d: invalids/flushes %d/%d != ref %d/%d",
			step, b.invalids, b.flushes, ref.invalids, ref.flushes)
	}
	if b.Evictions() != ref.evictions {
		t.Fatalf("step %d: evictions %d != ref %d", step, b.Evictions(), ref.evictions)
	}
	if got, want := b.lruPages(), ref.lruPages(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: LRU order %v != ref %v", step, got, want)
	}
}

// TestDifferentialALB drives interleaved Fill/Lookup/InvalidatePage/Flush/
// Covers streams through both ALB implementations. Identical LRU residency
// order after every op, plus identical eviction counts, pins down identical
// victim order: whenever the reference evicts its tail, the shipped ALB
// must have evicted the same page to keep the orders equal.
func TestDifferentialALB(t *testing.T) {
	pages := diffPages()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewALB(8)
		ref := newRefALB(8)
		buf := make([]AtomID, mem.PageBytes/512)
		for step := 0; step < 4000; step++ {
			pa := randAddr(rng, pages)
			switch op := rng.Intn(10); {
			case op < 4: // Fill
				n := len(buf)
				if rng.Intn(8) == 0 {
					n = rng.Intn(len(buf)) // occasional short fill
				}
				atoms := buf[:n]
				for i := range atoms {
					if rng.Intn(3) == 0 {
						atoms[i] = InvalidAtom
					} else {
						atoms[i] = AtomID(rng.Intn(8))
					}
				}
				b.Fill(pa, atoms)
				ref.Fill(pa, atoms)
			case op < 8: // Lookup
				id1, m1, h1 := b.Lookup(pa, 512)
				id2, m2, h2 := ref.Lookup(pa, 512)
				if id1 != id2 || m1 != m2 || h1 != h2 {
					t.Fatalf("seed %d step %d: Lookup(%#x) = %d,%v,%v != ref %d,%v,%v",
						seed, step, pa, id1, m1, h1, id2, m2, h2)
				}
			case op < 9: // InvalidatePage (Covers checked first, stat-free)
				if b.Covers(pa) != ref.Covers(pa) {
					t.Fatalf("seed %d step %d: Covers(%#x) diverges", seed, step, pa)
				}
				b.InvalidatePage(pa)
				ref.InvalidatePage(pa)
			default: // rare Flush
				if rng.Intn(50) == 0 {
					b.Flush()
					ref.Flush()
				}
			}
			assertALBEqual(t, step, b, ref)
		}
		if uint64(len(ref.victims)) != b.Evictions() {
			t.Fatalf("seed %d: %d logged victims vs %d evictions", seed, len(ref.victims), b.Evictions())
		}
	}
}

// assertAAMEqual compares the paged AAM against the reference over the
// whole confined universe: per-chunk lookups, per-page snapshots, and
// per-atom working sets.
func assertAAMEqual(t *testing.T, m *AAM, ref *refAAM, pages []uint64) {
	t.Helper()
	chunksPerPage := uint64(mem.PageBytes) / m.granBytes
	for _, page := range pages {
		base := mem.Addr(page << mem.PageShift)
		for c := uint64(0); c < chunksPerPage; c++ {
			pa := base + mem.Addr(c*m.granBytes)
			id1, ok1 := m.Lookup(pa)
			id2, ok2 := ref.Lookup(pa)
			if ok1 != ok2 || (ok1 && id1 != id2) {
				t.Fatalf("Lookup(%#x) = %d,%v != ref %d,%v", pa, id1, ok1, id2, ok2)
			}
		}
		if got, want := m.PageAtoms(base), ref.PageAtoms(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("PageAtoms(%#x) = %v != ref %v", base, got, want)
		}
	}
	for id := AtomID(0); id < 8; id++ {
		if got, want := m.MappedBytes(id), ref.MappedBytes(id); got != want {
			t.Fatalf("MappedBytes(%d) = %d != ref %d", id, got, want)
		}
	}
}

// TestDifferentialAAM drives unaligned, overlapping Map/Unmap streams through the paged directory and the hash-map reference.
func TestDifferentialAAM(t *testing.T) {
	pages := diffPages()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewAAM(512)
		ref := newRefAAM(512)
		for step := 0; step < 600; step++ {
			id := AtomID(rng.Intn(8))
			pa := randAddr(rng, pages)
			size := uint64(rng.Intn(3 * mem.PageBytes)) // unaligned, page-spanning
			switch op := rng.Intn(10); {
			case op < 6:
				m.Map(pa, size, id)
				ref.Map(pa, size, id)
			default:
				m.Unmap(pa, size, id)
				ref.Unmap(pa, size, id)
			}
			if step%50 == 0 {
				assertAAMEqual(t, m, ref, pages)
			}
		}
		assertAAMEqual(t, m, ref, pages)
	}
}

// amuOp is one step of an AMU differential stream. kind follows the
// stream's mix: map below 3, unmap below 6, activate below 8, deactivate 8,
// lookup below 19, ALB flush 19; any other kind only checks.
type amuOp struct {
	kind int
	id   AtomID
	pa   mem.Addr
	size uint64
}

// diffAMUStep applies op to the shipped AMU and the reference AMU, then
// asserts identical lookup results, AMU/ALB statistics and LRU order, the
// working set of every atom in ids, and the mapped and active-mapped atoms.
func diffAMUStep(t *testing.T, step int, u *AMU, ref *refAMU, op amuOp, ids []AtomID) {
	t.Helper()
	switch {
	case op.kind < 0:
	case op.kind < 3:
		u.ExecMap(op.id, op.pa, op.size)
		ref.ExecMap(op.id, op.pa, op.size)
	case op.kind < 6:
		u.ExecUnmap(op.id, op.pa, op.size)
		ref.ExecUnmap(op.id, op.pa, op.size)
	case op.kind < 8:
		u.ExecActivate(op.id)
		ref.ExecActivate(op.id)
	case op.kind < 9:
		u.ExecDeactivate(op.id)
		ref.ExecDeactivate(op.id)
	case op.kind < 19:
		id1, ok1 := u.Lookup(op.pa)
		id2, ok2 := ref.Lookup(op.pa)
		if id1 != id2 || ok1 != ok2 {
			t.Fatalf("step %d: Lookup(%#x) = %d,%v != ref %d,%v", step, op.pa, id1, ok1, id2, ok2)
		}
	case op.kind == 19:
		u.ALB().Flush()
		ref.Flush()
	}
	if u.Stats() != ref.stats {
		t.Fatalf("step %d: AMU stats %+v != ref %+v", step, u.Stats(), ref.stats)
	}
	assertALBEqual(t, step, u.ALB(), ref.alb)
	for _, id := range ids {
		if got, want := u.AAM().MappedBytes(id), ref.aam.MappedBytes(id); got != want {
			t.Fatalf("step %d: MappedBytes(%d) = %d != ref %d", step, id, got, want)
		}
	}
	if got, want := u.AAM().MappedAtoms(), ref.aam.MappedAtoms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: MappedAtoms = %v != ref %v", step, got, want)
	}
	if got, want := u.ActiveMappedAtoms(), ref.ActiveMappedAtoms(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: ActiveMappedAtoms = %v != ref %v", step, got, want)
	}
}

// TestDifferentialAMU is the end-to-end stream: interleaved ISA ops,
// lookups and ALB flushes through the full shipped AMU and the reference
// AMU, compared after every op by diffAMUStep.
func TestDifferentialAMU(t *testing.T) {
	pages := diffPages()
	ids := []AtomID{0, 1, 2, 3, 4, 5, 6, 7}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := NewAMU(identityMMU{}, AMUConfig{ALBEntries: 8})
		ref := newRefAMU(0, 8)
		for step := 0; step < 3000; step++ {
			op := amuOp{id: AtomID(rng.Intn(8)), pa: randAddr(rng, pages), size: uint64(rng.Intn(2*mem.PageBytes)) + 1}
			op.kind = rng.Intn(20)
			if op.kind == 19 && rng.Intn(20) != 0 {
				op.kind = -1 // flushes are rare in the seeded stream
			}
			diffAMUStep(t, step, u, ref, op, ids)
		}
		assertAAMEqual(t, u.AAM(), ref.aam, pages)
	}
}

// fuzzAtomIDs are the atom IDs FuzzAMUMatchesReference draws: a
// workload's first atoms, the AST's last ID, the first IDs past it, and
// the largest ID that is not InvalidAtom.
var fuzzAtomIDs = []AtomID{0, 1, 2, 3, 4, 5, 6, 7, MaxAtoms - 1, MaxAtoms, MaxAtoms + 1, 0xFFFE}

// fuzzAtom maps an op's atom byte to fuzzAtomIDs. The last, 0xFFFE, is
// drawn for byte 0xFF only: once it is mapped, the AAM's per-atom table
// has 64K entries, and every MappedAtoms check walks them.
func fuzzAtom(b byte) AtomID {
	if b == 0xFF {
		return fuzzAtomIDs[len(fuzzAtomIDs)-1]
	}
	return fuzzAtomIDs[int(b)%(len(fuzzAtomIDs)-1)]
}

// FuzzAMUMatchesReference is TestDifferentialAMU's stream driven by fuzz
// input: each five bytes are one op (kind, atom, page, offset in 16-B
// steps, size in 32-B steps), over the same page universe, with atom IDs
// from fuzzAtom. The committed corpus is under
// testdata/fuzz/FuzzAMUMatchesReference.
func FuzzAMUMatchesReference(f *testing.F) {
	pages := diffPages()
	f.Fuzz(func(t *testing.T, data []byte) {
		u := NewAMU(identityMMU{}, AMUConfig{ALBEntries: 8})
		ref := newRefAMU(0, 8)
		for step := 0; len(data) >= 5; step++ {
			op := amuOp{
				kind: int(data[0]) % 20,
				id:   fuzzAtom(data[1]),
				pa:   mem.Addr(pages[int(data[2])%len(pages)]<<mem.PageShift | uint64(data[3])<<4),
				size: uint64(data[4])<<5 + 1,
			}
			data = data[5:]
			diffAMUStep(t, step, u, ref, op, fuzzAtomIDs)
		}
		assertAAMEqual(t, u.AAM(), ref.aam, pages)
	})
}
