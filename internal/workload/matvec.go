package workload

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// The matrix-vector kernels below (mvt, gemver, gesummv) are the
// 2D-tileable Polybench members. The Figure 4 sweep uses the twelve
// 3D-tileable kernels (§5.3 restricts to those); these three extend the
// suite for the CLIs and for users wanting lighter workloads. Their
// reused working set is the vector block, tiled in one dimension.

// ExtraKernels returns the extended kernel set (not part of Figure 4).
func ExtraKernels() []KernelFactory {
	return []KernelFactory{
		{Name: "mvt", Make: Mvt},
		{Name: "gemver", Make: Gemver},
		{Name: "gesummv", Make: Gesummv},
	}
}

// AllKernels returns the Figure 4 twelve plus the extended set.
func AllKernels() []KernelFactory {
	return append(Kernels(), ExtraKernels()...)
}

// vecTile converts a tile budget into a vector block length (elements).
func vecTile(tileBytes uint64, n int) int {
	t := int(tileBytes / ElemBytes)
	t = t / 8 * 8
	if t < 8 {
		t = 8
	}
	if t > n {
		t = n
	}
	return t
}

// vecAttrs is the pinned vector-block atom.
var vecAttrs = core.Attributes{
	Type:        core.TypeFloat64,
	Pattern:     core.PatternRegular,
	StrideBytes: ElemBytes,
	RW:          core.ReadOnly,
	Intensity:   210,
	Reuse:       255,
}

// Mvt computes x1 += A·y1 and x2 += Aᵀ·y2, tiled over blocks of the y
// vectors (reused across all rows).
func Mvt(cfg TiledConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("mvt/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("mvt.vec", vecAttrs)
			lib.CreateAtom("mvt.A", streamAttrs)
			lib.CreateAtom("mvt.x", streamAttrs)
			lib.CreateAtom("mvt.y", streamAttrs)
		},
		Run: func(p Program) {
			lib := p.Lib()
			vec := lib.CreateAtom("mvt.vec", vecAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("mvt.A", streamAttrs)), n}
			x := p.Malloc("x", uint64(2*n)*ElemBytes, lib.CreateAtom("mvt.x", streamAttrs))
			y := p.Malloc("y", uint64(2*n)*ElemBytes, lib.CreateAtom("mvt.y", streamAttrs))
			t := vecTile(cfg.TileBytes, n)
			for jj := 0; jj < n; jj += t {
				jh := min(jj+t, n)
				size := uint64(jh-jj) * ElemBytes
				lib.AtomMap(vec, y+addrOf(jj), size)
				lib.AtomActivate(vec)
				for i := 0; i < n; i++ {
					p.Load(0, x+addrOf(i))
					for j := jj; j < jh; j += lineStep {
						p.Load(1, A.at(i, j))
						p.Load(2, y+addrOf(j))
						p.Work(16)
					}
					p.Store(3, x+addrOf(i))
				}
				// Transposed pass: x2 += Aᵀ·y2 over the same block.
				for i := 0; i < n; i++ {
					p.Load(4, x+addrOf(n+i))
					for j := jj; j < jh; j += lineStep {
						p.Load(5, A.at(j, i))
						p.Load(6, y+addrOf(n+j))
						p.Work(16)
					}
					p.Store(7, x+addrOf(n+i))
				}
				lib.AtomUnmap(vec, y+addrOf(jj), size)
			}
			lib.AtomDeactivate(vec)
		},
	}
}

func addrOf(i int) mem.Addr { return mem.Addr(i) * ElemBytes }

// Gemver is the composite vector kernel: A += u1·v1ᵀ + u2·v2ᵀ;
// x = βAᵀy + z; w = αAx. The pinned block is the active x/y slice.
func Gemver(cfg TiledConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("gemver/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("gemver.vec", vecAttrs)
			lib.CreateAtom("gemver.A", streamAttrs)
			lib.CreateAtom("gemver.vecs", streamAttrs)
		},
		Run: func(p Program) {
			lib := p.Lib()
			vec := lib.CreateAtom("gemver.vec", vecAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("gemver.A", streamAttrs)), n}
			// u1,v1,u2,v2,x,y,z,w packed into one region.
			vs := p.Malloc("vecs", uint64(8*n)*ElemBytes, lib.CreateAtom("gemver.vecs", streamAttrs))
			at := func(v, i int) mem.Addr { return mem.Addr(v*cfg.N+i) * ElemBytes }
			// Rank-2 update (streaming).
			for i := 0; i < n; i++ {
				p.Load(0, vs+at(0, i))
				p.Load(1, vs+at(2, i))
				for j := 0; j < n; j += lineStep {
					p.Load(2, vs+at(1, j))
					p.Load(3, A.at(i, j))
					p.Store(4, A.at(i, j))
					p.Work(16)
				}
			}
			// x = beta*A^T*y + z, tiled over y blocks.
			t := vecTile(cfg.TileBytes, n)
			for jj := 0; jj < n; jj += t {
				jh := min(jj+t, n)
				size := uint64(jh-jj) * ElemBytes
				lib.AtomMap(vec, vs+at(5, jj), size)
				lib.AtomActivate(vec)
				for i := 0; i < n; i++ {
					p.Load(5, vs+at(4, i))
					for j := jj; j < jh; j += lineStep {
						p.Load(6, A.at(j, i))
						p.Load(7, vs+at(5, j))
						p.Work(16)
					}
					p.Store(8, vs+at(4, i))
				}
				lib.AtomUnmap(vec, vs+at(5, jj), size)
			}
			// w = alpha*A*x (streaming).
			for i := 0; i < n; i++ {
				for j := 0; j < n; j += lineStep {
					p.Load(9, A.at(i, j))
					p.Load(10, vs+at(4, j))
					p.Work(16)
				}
				p.Store(11, vs+at(7, i))
			}
			lib.AtomDeactivate(vec)
		},
	}
}

// Gesummv is y = αAx + βBx: two matrices stream, the x block is reused.
func Gesummv(cfg TiledConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("gesummv/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("gesummv.vec", vecAttrs)
			lib.CreateAtom("gesummv.A", streamAttrs)
			lib.CreateAtom("gesummv.B", streamAttrs)
			lib.CreateAtom("gesummv.xy", streamAttrs)
		},
		Run: func(p Program) {
			lib := p.Lib()
			vec := lib.CreateAtom("gesummv.vec", vecAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("gesummv.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("gesummv.B", streamAttrs)), n}
			xy := p.Malloc("xy", uint64(2*n)*ElemBytes, lib.CreateAtom("gesummv.xy", streamAttrs))
			t := vecTile(cfg.TileBytes, n)
			for jj := 0; jj < n; jj += t {
				jh := min(jj+t, n)
				size := uint64(jh-jj) * ElemBytes
				lib.AtomMap(vec, xy+addrOf(jj), size)
				lib.AtomActivate(vec)
				for i := 0; i < n; i++ {
					for j := jj; j < jh; j += lineStep {
						p.Load(0, A.at(i, j))
						p.Load(1, B.at(i, j))
						p.Load(2, xy+addrOf(j))
						p.Work(24)
					}
					p.Load(3, xy+addrOf(n+i))
					p.Store(4, xy+addrOf(n+i))
				}
				lib.AtomUnmap(vec, xy+addrOf(jj), size)
			}
			lib.AtomDeactivate(vec)
		},
	}
}
