// Package lifecycleunknown holds cases the atomlifecycle analyzer must NOT
// judge: the atom ID's origin or full use set is outside the function, so
// only the runtime InvariantChecker can decide.
package lifecycleunknown

import (
	"xmem/internal/core"
	"xmem/internal/mem"
)

// fromHelper receives its ID from a helper: the source is unknown, so the
// map/unmap sequence is not judged even though no local CreateAtom exists.
func fromHelper(lib *core.Lib) {
	id := helper(lib)
	lib.AtomUnmap(id, mem.Addr(0), 4096)
}

func helper(lib *core.Lib) core.AtomID {
	return lib.CreateAtom("helper", core.Attributes{})
}

// escapes passes the zero-valued ID to another function: the variable
// escapes, so its (locally bad-looking) lifecycle is not judged.
func escapes(lib *core.Lib) {
	var id core.AtomID
	record(id)
	lib.AtomMap(id, mem.Addr(0), 4096)
}

func record(core.AtomID) {}

// rangeDefined takes its ID from a range clause, a write the analysis does
// not classify: nothing says the ID is bad, so nothing is judged.
func rangeDefined(lib *core.Lib, ids []core.AtomID) {
	for _, id := range ids {
		lib.AtomUnmap(id, mem.Addr(0), 4096)
	}
}

// bumped steps a constant ID with ++: the increment is a use outside an
// operator call, so the variable escapes.
func bumped(lib *core.Lib) {
	id := core.AtomID(1)
	id++
	lib.AtomMap(id, mem.Addr(0), 4096)
}

// assignedInClosure creates its ID inside a function literal: the write
// there is a use outside an operator call, so the variable escapes.
func assignedInClosure(lib *core.Lib) {
	var id core.AtomID
	create := func() { id = lib.CreateAtom("closure", core.Attributes{}) }
	create()
	lib.AtomMap(id, mem.Addr(0), 4096)
}
