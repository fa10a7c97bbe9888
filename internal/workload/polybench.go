package workload

import (
	"fmt"
	"math"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// TiledConfig parameterizes the use-case-1 kernels.
type TiledConfig struct {
	// N is the matrix/grid dimension in elements.
	N int
	// TileBytes is the working-set size the code was tuned for — the
	// size of the reused block each kernel pins through an atom. The
	// Figure 4 sweep varies this from small to several times the cache.
	TileBytes uint64
	// Steps is the number of stencil time steps applied per tile.
	Steps int
}

func (c TiledConfig) steps() int {
	if c.Steps <= 0 {
		return 8
	}
	return c.Steps
}

// tileSide converts a tile byte budget into a square tile edge in elements,
// clamped to [8, n] and rounded to whole cache lines.
func tileSide(tileBytes uint64, n int) int {
	t := int(math.Sqrt(float64(tileBytes) / ElemBytes))
	t = t / 8 * 8
	if t < 8 {
		t = 8
	}
	if t > n {
		t = n
	}
	return t
}

// cubeSide is tileSide for 3D tiles.
func cubeSide(tileBytes uint64, n int) int {
	t := int(math.Cbrt(float64(tileBytes) / ElemBytes))
	t = t / 4 * 4
	if t < 4 {
		t = 4
	}
	if t > n {
		t = n
	}
	return t
}

// KernelFactory names one Polybench-style kernel.
type KernelFactory struct {
	Name string
	Make func(cfg TiledConfig) Workload
}

// Kernels returns the twelve tiled kernels of the Figure 4/5/6 experiments:
// linear algebra (gemm, 2mm, 3mm, syrk, syr2k, trmm, symm, doitgen) and
// stencils (jacobi-2d, seidel-2d, fdtd-2d, heat-3d), all tiled within up to
// three dimensions as produced by a PLUTO-style locality optimizer (§5.3).
func Kernels() []KernelFactory {
	return []KernelFactory{
		{Name: "gemm", Make: Gemm},
		{Name: "2mm", Make: TwoMM},
		{Name: "3mm", Make: ThreeMM},
		{Name: "syrk", Make: Syrk},
		{Name: "syr2k", Make: Syr2k},
		{Name: "trmm", Make: Trmm},
		{Name: "symm", Make: Symm},
		{Name: "doitgen", Make: Doitgen},
		{Name: "jacobi-2d", Make: Jacobi2D},
		{Name: "seidel-2d", Make: Seidel2D},
		{Name: "fdtd-2d", Make: Fdtd2D},
		{Name: "heat-3d", Make: Heat3D},
	}
}

// KernelNames lists the kernel names in report order.
func KernelNames() []string {
	ks := Kernels()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names
}

// mat is a row-major n×n matrix of float64 in the simulated address space.
type mat struct {
	base mem.Addr
	n    int
}

func (m mat) at(i, j int) mem.Addr {
	return m.base + mem.Addr((i*m.n+j)*ElemBytes)
}

func (m mat) bytes() uint64 { return uint64(m.n) * uint64(m.n) * ElemBytes }

// tileAttrs are the attributes of the reused working-set atom each kernel
// maps over its active tile (§5.2(1)): maximum relative reuse, regular
// line-by-line access.
var tileAttrs = core.Attributes{
	Type:        core.TypeFloat64,
	Pattern:     core.PatternRegular,
	StrideBytes: mem.LineBytes,
	RW:          core.ReadOnly,
	Intensity:   200,
	Reuse:       255,
}

// streamAttrs describe data swept with little cross-iteration reuse.
var streamAttrs = core.Attributes{
	Type:        core.TypeFloat64,
	Pattern:     core.PatternRegular,
	StrideBytes: ElemBytes,
	RW:          core.ReadWrite,
	Intensity:   100,
	Reuse:       16,
}

// mapTile points the tile atom at a rows×cols block of m starting at
// (r0, c0), activating it; unmapTile peels it off again.
func mapTile(lib *core.Lib, id core.AtomID, m mat, r0, c0, rows, cols int) {
	lib.AtomMap2D(id, m.at(r0, c0), uint64(cols)*ElemBytes, uint64(rows), uint64(m.n)*ElemBytes)
	lib.AtomActivate(id)
}

func unmapTile(lib *core.Lib, id core.AtomID, m mat, r0, c0, rows, cols int) {
	lib.AtomUnmap2D(id, m.at(r0, c0), uint64(cols)*ElemBytes, uint64(rows), uint64(m.n)*ElemBytes)
}

// lineStep is the inner-loop stride in elements: kernels walk rows one
// cache line (8 float64) at a time, with Work standing in for the ALU
// operations on the line's elements.
const lineStep = mem.LineBytes / ElemBytes

// declTiled declares the standard atom set of a tiled kernel.
func declTiled(kernel string, arrays ...string) func(lib *core.Lib) {
	return func(lib *core.Lib) {
		lib.CreateAtom(kernel+".tile", tileAttrs)
		for _, a := range arrays {
			lib.CreateAtom(kernel+"."+a, streamAttrs)
		}
	}
}

// matmulPass runs one tiled matrix-multiply pass C += A·B, pinning the
// active B tile through `tile`. Sites offset by siteBase keep PCs distinct
// across passes.
func matmulPass(p Program, tile core.AtomID, C, A, B mat, t, siteBase int) {
	n := C.n
	lib := p.Lib()
	for kk := 0; kk < n; kk += t {
		kh := min(kk+t, n)
		for jj := 0; jj < n; jj += t {
			jh := min(jj+t, n)
			mapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
			for i := 0; i < n; i++ {
				for k := kk; k < kh; k++ {
					p.Load(siteBase+0, A.at(i, k))
					p.Work(2)
					for j := jj; j < jh; j += lineStep {
						p.Load(siteBase+1, B.at(k, j))
						p.Load(siteBase+2, C.at(i, j))
						p.Store(siteBase+3, C.at(i, j))
						p.Work(16)
					}
				}
			}
			unmapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
		}
	}
	lib.AtomDeactivate(tile)
}

// Gemm is C = A·B (tiled).
func Gemm(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("gemm/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("gemm", "A", "B", "C"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("gemm.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("gemm.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("gemm.B", streamAttrs)), n}
			C := mat{p.Malloc("C", uint64(n*n)*ElemBytes, lib.CreateAtom("gemm.C", streamAttrs)), n}
			matmulPass(p, tile, C, A, B, tileSide(cfg.TileBytes, n), 0)
		},
	}
}

// TwoMM is D = A·B; E = D·C.
func TwoMM(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("2mm/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("2mm", "A", "B", "C", "D", "E"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("2mm.tile", tileAttrs)
			n := cfg.N
			mk := func(name string) mat {
				return mat{p.Malloc(name, uint64(n*n)*ElemBytes, lib.CreateAtom("2mm."+name, streamAttrs)), n}
			}
			A, B, C, D, E := mk("A"), mk("B"), mk("C"), mk("D"), mk("E")
			t := tileSide(cfg.TileBytes, n)
			matmulPass(p, tile, D, A, B, t, 0)
			matmulPass(p, tile, E, D, C, t, 10)
		},
	}
}

// ThreeMM is E = A·B; F = C·D; G = E·F.
func ThreeMM(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("3mm/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("3mm", "A", "B", "C", "D", "E", "F", "G"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("3mm.tile", tileAttrs)
			n := cfg.N
			mk := func(name string) mat {
				return mat{p.Malloc(name, uint64(n*n)*ElemBytes, lib.CreateAtom("3mm."+name, streamAttrs)), n}
			}
			A, B, C, D, E, F, G := mk("A"), mk("B"), mk("C"), mk("D"), mk("E"), mk("F"), mk("G")
			t := tileSide(cfg.TileBytes, n)
			matmulPass(p, tile, E, A, B, t, 0)
			matmulPass(p, tile, F, C, D, t, 10)
			matmulPass(p, tile, G, E, F, t, 20)
		},
	}
}

// Syrk is C = A·Aᵀ + C: C[i][j] += A[i][k]·A[j][k]. The reused block is the
// A[jj..jj+t)×[kk..kk+t) row block, reused across all i.
func Syrk(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("syrk/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("syrk", "A", "C"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("syrk.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("syrk.A", streamAttrs)), n}
			C := mat{p.Malloc("C", uint64(n*n)*ElemBytes, lib.CreateAtom("syrk.C", streamAttrs)), n}
			t := tileSide(cfg.TileBytes, n)
			for kk := 0; kk < n; kk += t {
				kh := min(kk+t, n)
				for jj := 0; jj < n; jj += t {
					jh := min(jj+t, n)
					mapTile(lib, tile, A, jj, kk, jh-jj, kh-kk)
					for i := 0; i < n; i++ {
						for j := jj; j < jh; j++ {
							p.Load(0, C.at(i, j))
							p.Work(2)
							for k := kk; k < kh; k += lineStep {
								p.Load(1, A.at(i, k))
								p.Load(2, A.at(j, k))
								p.Work(16)
							}
							p.Store(3, C.at(i, j))
						}
					}
					unmapTile(lib, tile, A, jj, kk, jh-jj, kh-kk)
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}

// Syr2k is C = A·Bᵀ + B·Aᵀ + C; both the A and B row blocks are reused.
func Syr2k(cfg TiledConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("syr2k/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: func(lib *core.Lib) {
			lib.CreateAtom("syr2k.tileA", tileAttrs)
			lib.CreateAtom("syr2k.tileB", tileAttrs)
			lib.CreateAtom("syr2k.A", streamAttrs)
			lib.CreateAtom("syr2k.B", streamAttrs)
			lib.CreateAtom("syr2k.C", streamAttrs)
		},
		Run: func(p Program) {
			lib := p.Lib()
			tileA := lib.CreateAtom("syr2k.tileA", tileAttrs)
			tileB := lib.CreateAtom("syr2k.tileB", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("syr2k.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("syr2k.B", streamAttrs)), n}
			C := mat{p.Malloc("C", uint64(n*n)*ElemBytes, lib.CreateAtom("syr2k.C", streamAttrs)), n}
			// Halve the tile edge: two blocks share the budget.
			t := tileSide(cfg.TileBytes/2, n)
			for kk := 0; kk < n; kk += t {
				kh := min(kk+t, n)
				for jj := 0; jj < n; jj += t {
					jh := min(jj+t, n)
					mapTile(lib, tileA, A, jj, kk, jh-jj, kh-kk)
					mapTile(lib, tileB, B, jj, kk, jh-jj, kh-kk)
					for i := 0; i < n; i++ {
						for j := jj; j < jh; j++ {
							p.Load(0, C.at(i, j))
							for k := kk; k < kh; k += lineStep {
								p.Load(1, A.at(i, k))
								p.Load(2, B.at(j, k))
								p.Load(3, B.at(i, k))
								p.Load(4, A.at(j, k))
								p.Work(32)
							}
							p.Store(5, C.at(i, j))
						}
					}
					unmapTile(lib, tileA, A, jj, kk, jh-jj, kh-kk)
					unmapTile(lib, tileB, B, jj, kk, jh-jj, kh-kk)
				}
			}
			lib.AtomDeactivate(tileA)
			lib.AtomDeactivate(tileB)
		},
	}
}

// Trmm is B = A·B with lower-triangular A: only k <= i contributes, so the
// tile loop skips blocks entirely above the diagonal.
func Trmm(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("trmm/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("trmm", "A", "B"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("trmm.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("trmm.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("trmm.B", streamAttrs)), n}
			t := tileSide(cfg.TileBytes, n)
			for kk := 0; kk < n; kk += t {
				kh := min(kk+t, n)
				for jj := 0; jj < n; jj += t {
					jh := min(jj+t, n)
					mapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
					for i := kk; i < n; i++ { // triangular: rows below the block
						for k := kk; k < min(kh, i+1); k++ {
							p.Load(0, A.at(i, k))
							p.Work(2)
							for j := jj; j < jh; j += lineStep {
								p.Load(1, B.at(k, j))
								p.Load(2, B.at(i, j))
								p.Store(3, B.at(i, j))
								p.Work(16)
							}
						}
					}
					unmapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}

// Symm is C = A·B with symmetric A: the kernel reads A[i][k] for k<i and
// A[k][i] above the diagonal. The pinned block is the B tile.
func Symm(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("symm/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("symm", "A", "B", "C"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("symm.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("symm.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("symm.B", streamAttrs)), n}
			C := mat{p.Malloc("C", uint64(n*n)*ElemBytes, lib.CreateAtom("symm.C", streamAttrs)), n}
			t := tileSide(cfg.TileBytes, n)
			for kk := 0; kk < n; kk += t {
				kh := min(kk+t, n)
				for jj := 0; jj < n; jj += t {
					jh := min(jj+t, n)
					mapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
					for i := 0; i < n; i++ {
						for k := kk; k < kh; k++ {
							// Symmetric access: A[i][k] or its mirror.
							if k <= i {
								p.Load(0, A.at(i, k))
							} else {
								p.Load(1, A.at(k, i))
							}
							p.Work(2)
							for j := jj; j < jh; j += lineStep {
								p.Load(2, B.at(k, j))
								p.Load(3, C.at(i, j))
								p.Store(4, C.at(i, j))
								p.Work(16)
							}
						}
					}
					unmapTile(lib, tile, B, kk, jj, kh-kk, jh-jj)
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}

// Doitgen is the tensor contraction A[r][q][p] = Σ_s A[r][q][s]·C4[s][p],
// tiled over the reused C4 matrix.
func Doitgen(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("doitgen/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("doitgen", "A", "C4", "sum"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("doitgen.tile", tileAttrs)
			n := cfg.N
			// r×q plane sized so total work ≈ n³ line-steps.
			rq := max(n/8, 1)
			A := mat{p.Malloc("A", uint64(rq*n)*ElemBytes, lib.CreateAtom("doitgen.A", streamAttrs)), n}
			C4 := mat{p.Malloc("C4", uint64(n*n)*ElemBytes, lib.CreateAtom("doitgen.C4", streamAttrs)), n}
			sum := mat{p.Malloc("sum", uint64(rq*n)*ElemBytes, lib.CreateAtom("doitgen.sum", streamAttrs)), n}
			t := tileSide(cfg.TileBytes, n)
			for ss := 0; ss < n; ss += t {
				sh := min(ss+t, n)
				for pp := 0; pp < n; pp += t {
					ph := min(pp+t, n)
					mapTile(lib, tile, C4, ss, pp, sh-ss, ph-pp)
					for r := 0; r < rq; r++ {
						for s := ss; s < sh; s++ {
							p.Load(0, A.at(r, s))
							p.Work(2)
							for q := pp; q < ph; q += lineStep {
								p.Load(1, C4.at(s, q))
								p.Load(2, sum.at(r, q))
								p.Store(3, sum.at(r, q))
								p.Work(16)
							}
						}
					}
					unmapTile(lib, tile, C4, ss, pp, sh-ss, ph-pp)
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}

// stencil2D runs a time-tiled 2D sweep: each t×t tile of the grid receives
// `steps` stencil applications before the kernel moves on (PLUTO-style
// time skewing, halo handling elided — only the access stream matters).
// reads lists per-point neighbour offsets into src; the result goes to dst.
func stencil2D(p Program, tileAtom core.AtomID, src, dst mat, t, steps, siteBase int, inPlace bool) {
	lib := p.Lib()
	n := src.n
	for ii := 0; ii < n; ii += t {
		ih := min(ii+t, n)
		for jj := 0; jj < n; jj += t {
			jh := min(jj+t, n)
			mapTile(lib, tileAtom, src, ii, jj, ih-ii, jh-jj)
			for s := 0; s < steps; s++ {
				for i := max(ii, 1); i < min(ih, n-1); i++ {
					for j := max(jj, 1); j < min(jh, n-1); j += lineStep {
						p.Load(siteBase+0, src.at(i, j))
						p.Load(siteBase+1, src.at(i-1, j))
						p.Load(siteBase+2, src.at(i+1, j))
						p.Load(siteBase+3, src.at(i, j-1))
						p.Load(siteBase+4, src.at(i, j+8))
						if inPlace {
							p.Store(siteBase+5, src.at(i, j))
						} else {
							p.Store(siteBase+5, dst.at(i, j))
						}
						p.Work(24)
					}
				}
			}
			unmapTile(lib, tileAtom, src, ii, jj, ih-ii, jh-jj)
		}
	}
	lib.AtomDeactivate(tileAtom)
}

// Jacobi2D is the 5-point out-of-place stencil.
func Jacobi2D(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("jacobi-2d/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("jacobi-2d", "A", "B"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("jacobi-2d.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("jacobi-2d.A", streamAttrs)), n}
			B := mat{p.Malloc("B", uint64(n*n)*ElemBytes, lib.CreateAtom("jacobi-2d.B", streamAttrs)), n}
			stencil2D(p, tile, A, B, tileSide(cfg.TileBytes, n), cfg.steps(), 0, false)
		},
	}
}

// Seidel2D is the in-place 9-point Gauss-Seidel sweep (modelled with the
// same 5-point access skeleton plus in-place update).
func Seidel2D(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("seidel-2d/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("seidel-2d", "A"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("seidel-2d.tile", tileAttrs)
			n := cfg.N
			A := mat{p.Malloc("A", uint64(n*n)*ElemBytes, lib.CreateAtom("seidel-2d.A", streamAttrs)), n}
			stencil2D(p, tile, A, A, tileSide(cfg.TileBytes, n), cfg.steps(), 0, true)
		},
	}
}

// Fdtd2D is the 2D finite-difference time-domain kernel over ex, ey, hz.
func Fdtd2D(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("fdtd-2d/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("fdtd-2d", "ex", "ey", "hz"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("fdtd-2d.tile", tileAttrs)
			n := cfg.N
			ex := mat{p.Malloc("ex", uint64(n*n)*ElemBytes, lib.CreateAtom("fdtd-2d.ex", streamAttrs)), n}
			ey := mat{p.Malloc("ey", uint64(n*n)*ElemBytes, lib.CreateAtom("fdtd-2d.ey", streamAttrs)), n}
			hz := mat{p.Malloc("hz", uint64(n*n)*ElemBytes, lib.CreateAtom("fdtd-2d.hz", streamAttrs)), n}
			// Three arrays share the tile budget.
			t := tileSide(cfg.TileBytes/3, n)
			steps := cfg.steps()
			for ii := 0; ii < n; ii += t {
				ih := min(ii+t, n)
				for jj := 0; jj < n; jj += t {
					jh := min(jj+t, n)
					mapTile(lib, tile, hz, ii, jj, ih-ii, jh-jj)
					for s := 0; s < steps; s++ {
						for i := max(ii, 1); i < ih; i++ {
							for j := max(jj, 1); j < jh; j += lineStep {
								p.Load(0, hz.at(i, j))
								p.Load(1, hz.at(i-1, j))
								p.Load(2, ey.at(i, j))
								p.Store(3, ey.at(i, j))
								p.Load(4, hz.at(i, j-1))
								p.Load(5, ex.at(i, j))
								p.Store(6, ex.at(i, j))
								p.Work(24)
							}
						}
						for i := ii; i < min(ih, n-1); i++ {
							for j := jj; j < min(jh, n-1); j += lineStep {
								p.Load(7, ex.at(i, j))
								p.Load(8, ey.at(i, j+8))
								p.Load(9, ey.at(i+1, j))
								p.Load(10, hz.at(i, j))
								p.Store(11, hz.at(i, j))
								p.Work(24)
							}
						}
					}
					unmapTile(lib, tile, hz, ii, jj, ih-ii, jh-jj)
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}

// Heat3D is the 7-point 3D stencil, tiled in all three dimensions.
func Heat3D(cfg TiledConfig) Workload {
	return Workload{
		Name:    fmt.Sprintf("heat-3d/n%d/t%d", cfg.N, cfg.TileBytes),
		Declare: declTiled("heat-3d", "A", "B"),
		Run: func(p Program) {
			lib := p.Lib()
			tile := lib.CreateAtom("heat-3d.tile", tileAttrs)
			// 3D grid scaled so the total footprint matches the 2D
			// kernels: g³ = n².
			g := max(int(math.Cbrt(float64(cfg.N)*float64(cfg.N))), 16)
			plane := uint64(g * g)
			at := func(base mem.Addr, z, y, x int) mem.Addr {
				return base + mem.Addr((uint64(z)*plane+uint64(y)*uint64(g)+uint64(x))*ElemBytes)
			}
			A := p.Malloc("A", uint64(g)*plane*ElemBytes, lib.CreateAtom("heat-3d.A", streamAttrs))
			B := p.Malloc("B", uint64(g)*plane*ElemBytes, lib.CreateAtom("heat-3d.B", streamAttrs))
			t := cubeSide(cfg.TileBytes, g)
			steps := cfg.steps()
			for zz := 0; zz < g; zz += t {
				zh := min(zz+t, g)
				for yy := 0; yy < g; yy += t {
					yh := min(yy+t, g)
					for xx := 0; xx < g; xx += t {
						xh := min(xx+t, g)
						// Map the 3D tile of A.
						lib.AtomMap3D(tile, at(A, zz, yy, xx),
							uint64(xh-xx)*ElemBytes, uint64(yh-yy), uint64(zh-zz),
							uint64(g)*ElemBytes, plane*ElemBytes)
						lib.AtomActivate(tile)
						for s := 0; s < steps; s++ {
							for z := max(zz, 1); z < min(zh, g-1); z++ {
								for y := max(yy, 1); y < min(yh, g-1); y++ {
									for x := max(xx, 1); x < min(xh, g-1); x += lineStep {
										p.Load(0, at(A, z, y, x))
										p.Load(1, at(A, z-1, y, x))
										p.Load(2, at(A, z+1, y, x))
										p.Load(3, at(A, z, y-1, x))
										p.Load(4, at(A, z, y+1, x))
										p.Store(5, at(B, z, y, x))
										p.Work(32)
									}
								}
							}
						}
						lib.AtomUnmap3D(tile, at(A, zz, yy, xx),
							uint64(xh-xx)*ElemBytes, uint64(yh-yy), uint64(zh-zz),
							uint64(g)*ElemBytes, plane*ElemBytes)
					}
				}
			}
			lib.AtomDeactivate(tile)
		},
	}
}
