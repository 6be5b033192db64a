package sa

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/space"
)

// batchFunc scores a batch of configurations from scratch.
type batchFunc func([]space.Config) []float64

// countingDelta adapts a batchFunc as a from-scratch DeltaObjective:
// proposals are re-scored fully, ignoring the delta hints. It counts the
// protocol calls the annealer makes; Fork shares the counters.
type countingDelta struct {
	obj     batchFunc
	mu      sync.Mutex
	inits   int
	rounds  int
	commits int
	forks   int
}

func (d *countingDelta) InitBatch(points []space.Config) []float64 {
	d.mu.Lock()
	d.inits++
	d.mu.Unlock()
	return d.obj(points)
}

func (d *countingDelta) ProposeBatch(proposals []space.Config, changed []int) []float64 {
	d.mu.Lock()
	d.rounds++
	d.mu.Unlock()
	return d.obj(proposals)
}

func (d *countingDelta) Commit(int) {
	d.mu.Lock()
	d.commits++
	d.mu.Unlock()
}

func (d *countingDelta) Fork() DeltaObjective {
	d.mu.Lock()
	d.forks++
	d.mu.Unlock()
	return d
}

// scratch wraps f as a counting from-scratch DeltaObjective.
func scratch(f batchFunc) *countingDelta { return &countingDelta{obj: f} }

func sameConfigs(a, b []space.Config) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Flat() != b[i].Flat() {
			return false
		}
	}
	return true
}

// peakTerm is knob k's contribution to peakObjective at option index v.
func peakTerm(k, v int) float64 {
	d := float64(v - [3]int{15, 5, 10}[k])
	return -d * d
}

// deltaPeak scores peakObjective incrementally, from the protocol alone:
// it tracks each walker's current point and score, rescores a proposal by
// swapping the one changed knob's term, and adopts it only on Commit.
// Every term is a small integer, so the running sums are exact.
type deltaPeak struct {
	t                 *testing.T
	cur               []space.Config
	curScore, pending []float64
	last              []space.Config
}

func (d *deltaPeak) InitBatch(points []space.Config) []float64 {
	d.cur = make([]space.Config, len(points))
	for i, c := range points {
		d.cur[i] = space.Config{Index: append([]int(nil), c.Index...)}
	}
	d.curScore = peakObjective(points)
	d.pending = make([]float64, len(points))
	return d.curScore
}

func (d *deltaPeak) ProposeBatch(proposals []space.Config, changed []int) []float64 {
	d.last = proposals
	for i, p := range proposals {
		c, k := d.cur[i], changed[i]
		for j := range p.Index {
			if j != k && p.Index[j] != c.Index[j] {
				d.t.Fatalf("walker %d: proposal differs at knob %d, hint says %d", i, j, k)
			}
		}
		d.pending[i] = d.curScore[i]
		if k >= 0 {
			d.pending[i] += peakTerm(k, p.Index[k]) - peakTerm(k, c.Index[k])
		}
	}
	return d.pending
}

func (d *deltaPeak) Commit(i int) {
	copy(d.cur[i].Index, d.last[i].Index)
	d.curScore[i] = d.pending[i]
}

func (d *deltaPeak) Fork() DeltaObjective { return &deltaPeak{t: d.t} }

// TestFindMaximaDeltaMatchesBatch pins the delta protocol: an objective
// that rescores proposals incrementally from the changed-knob hints and
// Commit notifications must walk the identical RNG stream and return the
// identical best-first candidate list as from-scratch batch scoring.
func TestFindMaximaDeltaMatchesBatch(t *testing.T) {
	sp := gridSpace()
	opts := Options{ParallelSize: 24, Iters: 60}
	for seed := int64(0); seed < 5; seed++ {
		batch := scratch(peakObjective)
		want := FindMaxima(sp, batch, 8, nil, opts, rand.New(rand.NewSource(seed)))
		got := FindMaxima(sp, &deltaPeak{t: t}, 8, nil, opts, rand.New(rand.NewSource(seed)))
		if !sameConfigs(want, got) {
			t.Fatalf("seed %d: delta path diverges from batch path", seed)
		}
		if batch.inits != 1 || batch.rounds != opts.Iters {
			t.Fatalf("seed %d: %d inits / %d proposal rounds, want 1 / %d", seed, batch.inits, batch.rounds, opts.Iters)
		}
		if batch.commits == 0 {
			t.Fatalf("seed %d: no commits recorded over %d rounds", seed, batch.rounds)
		}
	}
}

// TestChainsWorkerCountInvariance is the determinism contract of the
// parallel-chain mode: for a fixed chain count, the merged top-k is
// bit-identical (same configs, same order) whether 1, 4 or 8 workers run
// the chains — the worker count schedules chains, it never changes what
// any chain computes or the fixed merge order.
func TestChainsWorkerCountInvariance(t *testing.T) {
	sp := gridSpace()
	for _, chains := range []int{2, 3, 8} {
		var ref []space.Config
		for _, workers := range []int{1, 4, 8} {
			opts := Options{ParallelSize: 32, Iters: 40, Chains: chains, Workers: workers}
			rng := rand.New(rand.NewSource(42))
			got := FindMaxima(sp, scratch(peakObjective), 10, nil, opts, rng)
			if workers == 1 {
				ref = got
				continue
			}
			if !sameConfigs(ref, got) {
				t.Fatalf("chains=%d workers=%d: results diverge from workers=1", chains, workers)
			}
		}
	}
}

// TestChainsDeltaWorkerCountInvariance runs a second grid and checks the
// Fork() protocol under concurrent chains: one fork per extra chain.
func TestChainsDeltaWorkerCountInvariance(t *testing.T) {
	sp := gridSpace()
	for _, chains := range []int{2, 4} {
		var ref []space.Config
		for _, workers := range []int{1, 4, 8} {
			opts := Options{ParallelSize: 32, Iters: 40, Chains: chains, Workers: workers}
			d := scratch(peakObjective)
			got := FindMaxima(sp, d, 10, nil, opts, rand.New(rand.NewSource(7)))
			if d.forks != chains-1 {
				t.Fatalf("chains=%d: %d forks, want %d", chains, d.forks, chains-1)
			}
			if workers == 1 {
				ref = got
				continue
			}
			if !sameConfigs(ref, got) {
				t.Fatalf("chains=%d workers=%d: delta results diverge from workers=1", chains, workers)
			}
		}
	}
}

// TestChainsFindPeak checks the parallel-chain mode still optimizes: with
// several chains the merged result must contain the global peak.
func TestChainsFindPeak(t *testing.T) {
	sp := gridSpace()
	opts := Options{ParallelSize: 96, Iters: 120, Chains: 4}
	rng := rand.New(rand.NewSource(3))
	got := FindMaxima(sp, scratch(peakObjective), 5, nil, opts, rng)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	best := got[0]
	if best.Index[0] != 15 || best.Index[1] != 5 || best.Index[2] != 10 {
		t.Fatalf("best = %v, want peak (15,5,10)", best.Index)
	}
}

// TestChainsRespectExclude checks the exclude set applies inside every
// chain and in the merge.
func TestChainsRespectExclude(t *testing.T) {
	sp := gridSpace()
	peak, err := sp.FromIndices([]int{15, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	exclude := map[uint64]bool{peak.Flat(): true}
	rng := rand.New(rand.NewSource(4))
	got := FindMaxima(sp, scratch(peakObjective), 8, exclude, Options{ParallelSize: 64, Iters: 80, Chains: 4}, rng)
	for _, c := range got {
		if c.Flat() == peak.Flat() {
			t.Fatal("excluded config returned from chained run")
		}
	}
}

// TestChainsMoreThanWalkers clamps the chain count at the walker count.
func TestChainsMoreThanWalkers(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(5))
	got := FindMaxima(sp, scratch(peakObjective), 4, nil, Options{ParallelSize: 3, Iters: 20, Chains: 16}, rng)
	if len(got) == 0 {
		t.Fatal("no results from chains > walkers")
	}
}
