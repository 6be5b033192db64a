package xgb

import (
	"math/rand"
	"testing"
)

func benchData(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.Float64()
			s += row[j] * float64(j%3)
		}
		X[i] = row
		y[i] = s + 0.1*rng.NormFloat64()
	}
	return X, y
}

// benchParams mirrors the cost-model configuration the AutoTVM-style tuner
// trains every round (see ModelTuner.xgbParams).
func benchParams() Params {
	p := DefaultParams()
	p.NumRounds = 24
	p.MaxDepth = 5
	p.MaxBins = 24
	return p
}

// BenchmarkXGBTrain fits the surrogate at late-run training-set size: ~512
// observations of a 12-knob space.
func BenchmarkXGBTrain(b *testing.B) {
	X, y := benchData(512, 12, 1)
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledPredictPairs walks every (tree, row) pair of an SA
// candidate pool through the packed-pair path kernel over pre-flattened
// rows — the form the SA delta objective feeds.
func BenchmarkCompiledPredictPairs(b *testing.B) {
	X, y := benchData(512, 12, 2)
	m, err := Train(X, y, benchParams())
	if err != nil {
		b.Fatal(err)
	}
	c := m.Compile()
	pool, _ := benchData(2048, 12, 3)
	dim := c.NumFeatures()
	flat := make([]float64, len(pool)*dim)
	items := make([]int64, 0, len(pool)*c.NumTrees())
	for i, row := range pool {
		copy(flat[i*dim:], row)
		for t := 0; t < c.NumTrees(); t++ {
			items = append(items, PackPair(int32(t), i*dim))
		}
	}
	vals := make([]float64, len(items))
	masks := make([]uint64, len(items))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictPairsPath(items, flat, vals, masks)
	}
}
