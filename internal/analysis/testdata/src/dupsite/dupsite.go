// Package dupsite holds a workload that declares one atom site string
// twice: once in Declare (the compile-time summary the loader decodes) and
// once in Run (the runtime handle), both with the same weak attributes.
// The runtime keys atoms by site string and attrconflict demands the two
// declarations agree, so attrinfer's fix must strengthen both CreateAtom
// calls to one identical literal. dupsite.go.golden is the same file after
// `xmem-vet -fix`.
package dupsite

import (
	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

const elems = 64

// Stream reads a buffer once at an 8-byte stride; the declarations name
// only its intensity.
func Stream() workload.Workload {
	return workload.Workload{
		Name: "dupsite",
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("dupsite.buf", core.Attributes{Intensity: 90}) // want "strengthens 2 CreateAtom site"
		},
		Run: func(p workload.Program) {
			id := p.Lib().CreateAtom("dupsite.buf", core.Attributes{Intensity: 90})
			base := p.Malloc("buf", elems*8, id)
			for i := 0; i < elems; i++ {
				p.Load(0, base+mem.Addr(i*8))
			}
		},
	}
}
