package sim

import (
	"testing"

	"xmem/internal/workload"
)

// smokeConfig is the machine InferSmoke consumers use: XMem-guided cache
// and placement on, so the declared attributes actually steer policy.
func smokeConfig() Config {
	cfg := FastConfig(256 << 10)
	cfg.Alloc = AllocXMemPlacement
	cfg.AllocSeed = 42
	cfg.XMemCache = true
	return cfg
}

func TestInferSmokeGemm(t *testing.T) {
	w, err := workload.ByName("gemm", workload.TiledConfig{N: 64, TileBytes: 8 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := InferSmoke(smokeConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass() {
		t.Errorf("declaring gemm's attributes made the machine worse: %s", r)
	}
	if r.Stripped == r.Declared {
		t.Errorf("stripping attributes changed nothing — the smoke has no teeth: %s", r)
	}
}

// TestStripAtomAttrsDeterministic: the stripped run models the unannotated
// binary, so two stripped runs must agree exactly — the comparison in
// InferSmoke is meaningless otherwise.
func TestStripAtomAttrsDeterministic(t *testing.T) {
	w, err := workload.ByName("gemm", workload.TiledConfig{N: 48, TileBytes: 8 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w = unannotated(w)
	cfg := smokeConfig()
	a, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.L3 != b.L3 || a.DRAM.RowHits != b.DRAM.RowHits {
		t.Errorf("stripped runs diverge: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}
