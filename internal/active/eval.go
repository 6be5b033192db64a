package active

import (
	"repro/internal/xgb"
)

// Evaluator scores a feature vector; higher predictions mean better
// expected performance. It is the paper's "evaluation function" f_gamma.
type Evaluator interface {
	Predict(x []float64) float64
}

// EvalTrainer builds an Evaluator from observations. The framework is
// explicitly independent of the concrete evaluation-function form
// (Section III-B), so trainers are pluggable.
type EvalTrainer interface {
	Train(X [][]float64, y []float64, seed int64) (Evaluator, error)
}

// XGBTrainer adapts the gradient-boosted-tree regressor as the evaluation
// function, matching AutoTVM's XGBoost cost model.
type XGBTrainer struct {
	Params xgb.Params
}

// NewXGBTrainer returns a trainer with parameters sized for the BAO loop,
// which retrains Gamma models on every optimization step: fewer, shallower
// trees over quantized features.
func NewXGBTrainer() XGBTrainer {
	p := xgb.DefaultParams()
	p.NumRounds = 20
	p.MaxDepth = 4
	p.MaxBins = 16
	return XGBTrainer{Params: p}
}

// Train implements EvalTrainer. The returned evaluator is the compiled
// ensemble, whose predictions are bit-identical to the trained model's.
// It uses plain Compile, not the arena-backed CompilePooled: an Evaluator
// has no release point.
func (t XGBTrainer) Train(X [][]float64, y []float64, seed int64) (Evaluator, error) {
	p := t.Params
	p.Seed = seed
	m, err := xgb.Train(X, y, p)
	if err != nil {
		return nil, err
	}
	return m.Compile(), nil
}

// MeanEvaluator averages a set of evaluators; summation and averaging give
// the same argmax, and the average keeps magnitudes comparable across Gamma
// settings in the ablations.
type MeanEvaluator []Evaluator

// Predict implements Evaluator.
func (m MeanEvaluator) Predict(x []float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range m {
		s += e.Predict(x)
	}
	return s / float64(len(m))
}
