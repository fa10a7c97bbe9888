// Package lifecyclebad holds true positives for the atomlifecycle analyzer.
package lifecyclebad

import (
	"xmem/internal/core"
	"xmem/internal/mem"
)

func zeroID(lib *core.Lib) {
	var id core.AtomID
	lib.AtomMap(id, mem.Addr(0), 4096) // want "no reaching CreateAtom"
}

func constID(lib *core.Lib) {
	lib.AtomActivate(7) // want "constant atom ID"
}

func unmapOnly(lib *core.Lib) {
	id := lib.CreateAtom("unmap-only", core.Attributes{})
	lib.AtomUnmap(id, mem.Addr(0), 4096) // want "never maps"
}

func activateOnly(lib *core.Lib) {
	id := lib.CreateAtom("activate-only", core.Attributes{})
	lib.AtomActivate(id) // want "never maps"
}

func activateBeforeMap(lib *core.Lib) {
	id := lib.CreateAtom("act-before-map", core.Attributes{})
	lib.AtomActivate(id) // want "before its first AtomMap"
	lib.AtomMap(id, mem.Addr(0), 4096)
	lib.AtomUnmap(id, mem.Addr(0), 4096)
}

// zeroPair declares two IDs in one valueless var: each name is a zero-value
// declaration of its own.
func zeroPair(lib *core.Lib) {
	var a, b core.AtomID
	lib.AtomMap(a, mem.Addr(0), 4096) // want "no reaching CreateAtom"
	lib.AtomActivate(b)               // want "no reaching CreateAtom"
}
