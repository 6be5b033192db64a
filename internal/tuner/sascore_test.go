package tuner

import (
	"math/rand"
	"testing"

	"repro/internal/sa"
	"repro/internal/space"
	"repro/internal/xgb"
)

// sascoreModel trains a surrogate on random configurations of the test
// task's space, exactly as the tuner would (same parameter block).
func sascoreModel(t testing.TB, sp *space.Space, seed int64) *xgb.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 160
	X := make([][]float64, 0, n)
	y := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c := sp.Random(rng)
		X = append(X, c.Features())
		y = append(y, float64(c.Flat()%97)/97.0)
	}
	p := xgb.DefaultParams()
	p.NumRounds = 24
	p.MaxDepth = 5
	p.MaxBins = 24
	p.Seed = seed
	m, err := xgb.Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// naiveObjective is the from-scratch oracle: every batch is scored with
// the pointer-tree model.Predict(c.Features()) and the delta hints are
// ignored. It is read-only, so chains may share one instance.
type naiveObjective struct{ model *xgb.Model }

func (o naiveObjective) score(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		out[i] = o.model.Predict(c.Features())
	}
	return out
}

func (o naiveObjective) InitBatch(points []space.Config) []float64 { return o.score(points) }
func (o naiveObjective) ProposeBatch(proposals []space.Config, _ []int) []float64 {
	return o.score(proposals)
}
func (o naiveObjective) Commit(int)              {}
func (o naiveObjective) Fork() sa.DeltaObjective { return o }

// TestSAObjectiveMatchesNaive is the end-to-end parity contract of the
// compiled delta path on a real tuning space: FindMaxima over
// newSAObjective must return the identical candidate list — same configs,
// same order — as FindMaxima over the naive model.Predict(c.Features())
// objective, for serial and chained runs alike.
func TestSAObjectiveMatchesNaive(t *testing.T) {
	task := testTask(t)
	model := sascoreModel(t, task.Space, 11)
	naive := naiveObjective{model}
	for _, opts := range []sa.Options{
		{},
		{ParallelSize: 48, Iters: 80},
		{ParallelSize: 48, Iters: 80, Chains: 3, Workers: 4},
	} {
		for seed := int64(0); seed < 3; seed++ {
			want := sa.FindMaxima(task.Space, naive, 16, nil, opts, rand.New(rand.NewSource(seed)))
			obj := newSAObjective(model, task.Space)
			got := sa.FindMaxima(task.Space, obj, 16, nil, opts, rand.New(rand.NewSource(seed)))
			if len(want) != len(got) {
				t.Fatalf("opts %+v seed %d: %d vs %d candidates", opts, seed, len(want), len(got))
			}
			for i := range want {
				if want[i].Flat() != got[i].Flat() {
					t.Fatalf("opts %+v seed %d: candidate %d differs (%v vs %v)", opts, seed, i, want[i].Index, got[i].Index)
				}
			}
		}
	}
}

// TestSAObjectiveRespectsExclude: visited configurations must never come
// back from the delta path.
func TestSAObjectiveRespectsExclude(t *testing.T) {
	task := testTask(t)
	model := sascoreModel(t, task.Space, 13)
	rng := rand.New(rand.NewSource(5))
	exclude := make(map[uint64]bool)
	for i := 0; i < 32; i++ {
		exclude[task.Space.Random(rng).Flat()] = true
	}
	obj := newSAObjective(model, task.Space)
	got := sa.FindMaxima(task.Space, obj, 24, exclude, sa.Options{}, rand.New(rand.NewSource(6)))
	for _, c := range got {
		if exclude[c.Flat()] {
			t.Fatalf("excluded config %v returned", c.Index)
		}
	}
}

// TestSAChainsWorkerCountInvariance is the tuner-level determinism contract
// for opt-in parallel SA chains: with a fixed chain count, the full
// measured sample stream of a tuning run is bit-identical whether the
// chains execute on 1, 4 or 8 workers.
func TestSAChainsWorkerCountInvariance(t *testing.T) {
	task := testTask(t)
	var ref uint64
	for i, workers := range []int{1, 4, 8} {
		tn := NewAutoTVM()
		tn.SA = sa.Options{Chains: 3, Workers: workers}
		res := mustTune(t, tn, task, sim(5), quickOpts(64, 17))
		h := goldenSampleHash(res)
		if i == 0 {
			ref = h
			continue
		}
		if h != ref {
			t.Fatalf("SA chain workers=%d: sample stream %#016x differs from workers=1 %#016x", workers, h, ref)
		}
	}
}
