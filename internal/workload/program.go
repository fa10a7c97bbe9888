// Package workload defines the execution-driven workloads of the
// evaluation: the twelve tiled linear-algebra/stencil kernels of use case 1
// (§5.3, Polybench/PLUTO-style) and the 27 synthetic multi-structure
// workloads standing in for the SPEC/Rodinia/Parboil mix of use case 2
// (§6.3).
//
// A workload is a Go function that runs its real loop nest against the
// Program interface, emitting loads, stores, ALU work, and XMemLib calls.
// The simulator executes those accesses against the modelled hierarchy.
package workload

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// Program is the machine a workload runs on.
type Program interface {
	// Load issues a load of the value at va. site identifies the static
	// load instruction (the PC prefetchers train on).
	Load(site int, va mem.Addr)
	// Store issues a store to va.
	Store(site int, va mem.Addr)
	// Work issues n non-memory instructions.
	Work(n int)
	// Malloc allocates a data structure tagged with the given atom
	// (§4.1.2's augmented allocator). It panics on exhaustion — workloads
	// are sized to fit the configured physical memory.
	Malloc(name string, size uint64, atom core.AtomID) mem.Addr
	// Lib is the process' XMemLib instance.
	Lib() *core.Lib
}

// Workload is one runnable benchmark.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Declare performs the compile-time CREATE summarization: it creates
	// every atom the program uses so the OS can load the atom segment
	// before execution (§3.5.2). Run re-creates the same sites and gets
	// the same IDs.
	Declare func(lib *core.Lib)
	// Run executes the workload.
	Run func(p Program)
}

// ElemBytes is the element size of every kernel (float64).
const ElemBytes = 8

// ByName returns the workload called name: a kernel of AllKernels built
// with cfg, else a Suite27 workload scaled by scale.
func ByName(name string, cfg TiledConfig, scale float64) (Workload, error) {
	for _, k := range AllKernels() {
		if k.Name == name {
			return k.Make(cfg), nil
		}
	}
	for _, s := range Suite27() {
		if s.Name == name {
			return Synthetic(s.Scaled(scale)), nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
