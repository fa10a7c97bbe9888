package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

// symSrcTemplate wraps one body snippet in a minimal package so the shared
// symbolic evaluator can be exercised directly — independent of any
// analyzer fixture. The snippet sees `p` (the program), `base` (an
// attributed allocation), and `n` (an opaque loop-invariant int).
const symSrcTemplate = `package symtest

import (
	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

func body(p workload.Program, n int) {
	id := p.Lib().CreateAtom("symtest.x", core.Attributes{})
	base := p.Malloc("x", 4096, id)
	var _ mem.Addr = base
	%s
}
`

// accessObs is the observable classification of one access: what
// classifyAccess derives from the evaluated shape.
type accessObs struct {
	bad       bool
	invariant bool
	class     int
	stride    int64
	strideOK  bool
	first     int64
	last      int64
	boundsOK  bool
}

// evalAccesses type-checks the snippet in a temp dir and returns the
// classification of every Load/Store in source order.
func evalAccesses(t *testing.T, snippet string) []accessObs {
	t.Helper()
	dir := t.TempDir()
	src := fmt.Sprintf(symSrcTemplate, snippet)
	if err := os.WriteFile(filepath.Join(dir, "sym.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/symtest")
	if err != nil {
		t.Fatalf("snippet does not type-check: %v\n%s", err, src)
	}
	u := &Unit{Fset: loader.Fset, Packages: []*Package{pkg}}
	idx := newFuncIndex(u)
	var out []accessObs
	funcBodies(pkg, func(body *ast.BlockStmt) {
		facts := collectBodyFacts(u, pkg, body, nil)
		walkAccesses(u, pkg, facts, idx, func(ctx *evalCtx, call *ast.CallExpr, sh *shape, store bool) {
			obs := accessObs{bad: sh.bad}
			if !sh.bad {
				ac := classifyAccess(ctx, sh)
				obs.invariant = ac.inner == nil
				obs.class = ac.class
				obs.stride, obs.strideOK = ac.stride, ac.strideOK
				obs.first, obs.last, obs.boundsOK = ac.first, ac.last, ac.boundsOK
			}
			out = append(out, obs)
		})
	})
	return out
}

// TestSymevalClassification pins the core derivations the analyzers build
// on: affine stride (coefficient x step), irregular detection, loose
// coefficients, unknown steps, and provable range bounds.
func TestSymevalClassification(t *testing.T) {
	cases := []struct {
		name    string
		snippet string
		want    []accessObs
	}{
		{
			name:    "unit stride ascending",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*8)) }`,
			want:    []accessObs{{class: classCoeff, stride: 8, strideOK: true, first: 0, last: 504, boundsOK: true}},
		},
		{
			name:    "step scales the stride",
			snippet: `for i := 0; i < 64; i += 2 { p.Load(0, base+mem.Addr(i*8)) }`,
			want:    []accessObs{{class: classCoeff, stride: 16, strideOK: true, first: 0, last: 496, boundsOK: true}},
		},
		{
			name:    "descending loop walks backward",
			snippet: `for i := 63; i >= 0; i-- { p.Load(0, base+mem.Addr(i*8)) }`,
			want:    []accessObs{{class: classCoeff, stride: 8, strideOK: true, first: 504, last: 0, boundsOK: true}},
		},
		{
			name:    "nested loops: stride from the innermost var, no single-var bounds",
			snippet: `for i := 0; i < 4; i++ { for j := 0; j < 8; j++ { p.Load(0, base+mem.Addr(i*512+j*8)) } }`,
			want:    []accessObs{{class: classCoeff, stride: 8, strideOK: true}},
		},
		{
			name:    "unknown step: affine but stride unprovable",
			snippet: `for i := 0; i < 64; i += n { p.Load(0, base+mem.Addr(i*8)) }`,
			want:    []accessObs{{class: classCoeff}},
		},
		{
			name:    "loop-invariant coefficient is loose",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*n)) }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name:    "modulo mixing is provably irregular",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*31%64*8)) }`,
			want:    []accessObs{{class: classIrr}},
		},
		{
			name:    "constant offset inside a loop is invariant",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+128) }`,
			want:    []accessObs{{invariant: true}},
		},
		{
			name:    "a zero coefficient leaves the address invariant",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*8-i*8+16)) }`,
			want:    []accessObs{{invariant: true}},
		},
		{
			name:    "a known and a loose coefficient sum to loose",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*8+i*n)) }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name:    "division bends the stride loose",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i/2*8)) }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name:    "a squared induction variable is irregular",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*i*8)) }`,
			want:    []accessObs{{class: classIrr}},
		},
		{
			name:    "a product of two induction variables is loose",
			snippet: `for i := 0; i < 4; i++ { for j := 0; j < 8; j++ { p.Load(0, base+mem.Addr(i*j*8)) } }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name:    "an irregular term outranks a coefficient",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*8+i%4*8)) }`,
			want:    []accessObs{{class: classIrr}},
		},
		{
			name:    "an irregular term outranks a coefficient added after it",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i%4*8+i*8)) }`,
			want:    []accessObs{{class: classIrr}},
		},
		{
			name:    "a loose term outranks a coefficient added after it",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i*n+i*8)) }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name:    "division keeps an irregular term irregular",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr(i%4*8/2)) }`,
			want:    []accessObs{{class: classIrr}},
		},
		{
			name:    "a zero coefficient keeps its term and blocks single-variable bounds",
			snippet: `for i := 0; i < 4; i++ { for j := 0; j < 8; j++ { p.Load(0, base+mem.Addr(i*8-i*8+j*8)) } }`,
			want:    []accessObs{{class: classCoeff, stride: 8, strideOK: true}},
		},
		{
			name:    "looseness does not cancel",
			snippet: `for i := 0; i < 64; i++ { p.Load(0, base+mem.Addr((i*n+i*8)-i*n)) }`,
			want:    []accessObs{{class: classLoose}},
		},
		{
			name: "stores classify like loads",
			snippet: `for i := 0; i < 64; i++ {
		p.Load(0, base+mem.Addr(i*8))
		p.Store(0, base+mem.Addr(i*8))
	}`,
			want: []accessObs{
				{class: classCoeff, stride: 8, strideOK: true, first: 0, last: 504, boundsOK: true},
				{class: classCoeff, stride: 8, strideOK: true, first: 0, last: 504, boundsOK: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := evalAccesses(t, tc.snippet)
			if len(got) != len(tc.want) {
				t.Fatalf("observed %d accesses, want %d: %+v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("access %d:\n got %+v\nwant %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
