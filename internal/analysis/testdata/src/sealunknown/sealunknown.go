// Package sealunknown holds cases the sealedlib analyzer must NOT judge: a
// deferred Segment() call, whose execution point is not its syntactic
// point (dynamically it still runs after the CreateAtom — the runtime
// InvariantChecker's SealedCreates counter covers that), and a library
// variable reassigned inside a function literal.
package sealunknown

import "xmem/internal/core"

func deferredSeal(lib *core.Lib) {
	defer func() { _ = lib.Segment() }()
	lib.CreateAtom("deferred", core.Attributes{})
}

// swappedInClosure reassigns the library variable inside a function
// literal: the later CreateAtom may target another library.
func swappedInClosure(lib, other *core.Lib) []byte {
	l := lib
	swap := func() { l = other }
	seg := l.Segment()
	swap()
	l.CreateAtom("swapped", core.Attributes{})
	return seg
}
