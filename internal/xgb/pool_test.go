package xgb

import (
	"math"
	"testing"
)

// dirtyFrom returns a CompiledModel whose arrays still hold another
// ensemble's data — the worst-case arena slot a pooled compile can be
// handed.
func dirtyFrom(t *testing.T, seed int64) *CompiledModel {
	t.Helper()
	m, _ := trainRandom(t, seed, func(p *Params) { p.NumRounds = 24; p.MaxDepth = 6 })
	return m.Compile()
}

// TestCompileIntoDirtyBitIdentical is the arena-reuse contract: compiling
// into a recycled slot that still holds a different ensemble's arrays must
// produce a model bit-identical, field by field and prediction by
// prediction, to a fresh Compile. compileInto is exercised directly so the
// dirty slot is guaranteed (sync.Pool may drop entries at will).
func TestCompileIntoDirtyBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		m, pool := trainRandom(t, 500+seed, nil)
		fresh := m.Compile()
		// Recycle both a larger and a smaller donor: one exercises the
		// capacity-reuse path, the other the reallocation path.
		for di, donor := range []*CompiledModel{dirtyFrom(t, 900+seed), dirtyFrom(t, 950+seed)} {
			got := m.compileInto(donor)
			if got.base != fresh.base || got.nfeat != fresh.nfeat || got.ntrees != fresh.ntrees {
				t.Fatalf("seed %d donor %d: header mismatch", seed, di)
			}
			if len(got.off) != len(fresh.off) || len(got.steps) != len(fresh.steps) ||
				len(got.nodes) != len(fresh.nodes) || len(got.value) != len(fresh.value) ||
				len(got.fmask) != len(fresh.fmask) {
				t.Fatalf("seed %d donor %d: array length mismatch", seed, di)
			}
			for i := range fresh.off {
				if got.off[i] != fresh.off[i] {
					t.Fatalf("seed %d donor %d: off[%d] differs", seed, di, i)
				}
			}
			for i := range fresh.steps {
				if got.steps[i] != fresh.steps[i] {
					t.Fatalf("seed %d donor %d: steps[%d] differs", seed, di, i)
				}
			}
			for i := range fresh.nodes {
				if got.nodes[i] != fresh.nodes[i] {
					t.Fatalf("seed %d donor %d: nodes[%d] differs", seed, di, i)
				}
			}
			for i := range fresh.value {
				if math.Float64bits(got.value[i]) != math.Float64bits(fresh.value[i]) {
					t.Fatalf("seed %d donor %d: value[%d] differs", seed, di, i)
				}
			}
			for i := range fresh.fmask {
				if got.fmask[i] != fresh.fmask[i] {
					t.Fatalf("seed %d donor %d: fmask[%d] differs (stale feature bit)", seed, di, i)
				}
			}
			assertCompiledMatches(t, m, got, pool)
		}
	}
}

// TestCompilePooledRoundTrip smokes the public pool surface: pooled
// compiles predict identically to fresh ones across Release cycles, and
// releasing nil is a no-op.
func TestCompilePooledRoundTrip(t *testing.T) {
	var nilCM *CompiledModel
	nilCM.Release()
	for seed := int64(0); seed < 3; seed++ {
		m, pool := trainRandom(t, 700+seed, nil)
		want := predictAll(m, pool)
		for cycle := 0; cycle < 3; cycle++ {
			c := m.CompilePooled()
			for i, row := range pool {
				if math.Float64bits(c.Predict(row)) != math.Float64bits(want[i]) {
					t.Fatalf("seed %d cycle %d row %d: pooled prediction differs", seed, cycle, i)
				}
			}
			c.Release()
		}
	}
}
