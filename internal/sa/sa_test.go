package sa

import (
	"math/rand"
	"testing"

	"repro/internal/space"
)

// gridSpace is a simple 3-knob space for objective tests.
func gridSpace() *space.Space {
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	return space.New(
		space.NewEnumKnob("a", vals...),
		space.NewEnumKnob("b", vals...),
		space.NewEnumKnob("c", vals...),
	)
}

// peakObjective is maximized at a=15, b=5, c=10.
func peakObjective(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		a := float64(c.Index[0]) - 15
		b := float64(c.Index[1]) - 5
		cc := float64(c.Index[2]) - 10
		out[i] = -(a*a + b*b + cc*cc)
	}
	return out
}

// TestFindMaximaFindsPeak checks the annealer reaches the global peak and
// drives the objective through its protocol: one InitBatch, one
// ProposeBatch per iteration, and a Commit for accepted proposals.
func TestFindMaximaFindsPeak(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(1))
	obj := scratch(peakObjective)
	opts := DefaultOptions()
	got := FindMaxima(sp, obj, 5, nil, opts, rng)
	if obj.inits != 1 || obj.rounds != opts.Iters {
		t.Fatalf("%d inits / %d proposal rounds, want 1 / %d", obj.inits, obj.rounds, opts.Iters)
	}
	if obj.commits == 0 {
		t.Fatalf("no commits recorded over %d rounds", obj.rounds)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	best := got[0]
	if best.Index[0] != 15 || best.Index[1] != 5 || best.Index[2] != 10 {
		t.Fatalf("best = %v, want peak (15,5,10)", best.Index)
	}
	// Best-first ordering.
	scores := peakObjective(got)
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			t.Fatalf("results not sorted best-first: %v", scores)
		}
	}
}

func TestFindMaximaDistinct(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(2))
	got := FindMaxima(sp, scratch(peakObjective), 20, nil, DefaultOptions(), rng)
	seen := make(map[uint64]bool)
	for _, c := range got {
		f := c.Flat()
		if seen[f] {
			t.Fatal("duplicate result")
		}
		seen[f] = true
	}
}

func TestFindMaximaExcludes(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(3))
	peak, err := sp.FromIndices([]int{15, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	exclude := map[uint64]bool{peak.Flat(): true}
	got := FindMaxima(sp, scratch(peakObjective), 5, exclude, DefaultOptions(), rng)
	for _, c := range got {
		if c.Flat() == peak.Flat() {
			t.Fatal("excluded config returned")
		}
	}
}

func TestFindMaximaZeroK(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(4))
	if got := FindMaxima(sp, scratch(peakObjective), 0, nil, DefaultOptions(), rng); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestFindMaximaBeatsRandomSearch(t *testing.T) {
	// On the same evaluation budget, SA should reach a better objective
	// value than pure random sampling (averaged over repeats).
	sp := gridSpace()
	opts := Options{ParallelSize: 16, Iters: 30}
	budget := 16 * 31
	saWins := 0
	rounds := 10
	for r := 0; r < rounds; r++ {
		rng := rand.New(rand.NewSource(int64(100 + r)))
		saBest := peakObjective(FindMaxima(sp, scratch(peakObjective), 1, nil, opts, rng))[0]
		rng2 := rand.New(rand.NewSource(int64(200 + r)))
		randBest := -1e18
		for i := 0; i < budget; i++ {
			v := peakObjective([]space.Config{sp.Random(rng2)})[0]
			if v > randBest {
				randBest = v
			}
		}
		if saBest >= randBest {
			saWins++
		}
	}
	if saWins < 7 {
		t.Fatalf("SA won only %d/%d rounds against random search", saWins, rounds)
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.ParallelSize <= 0 || o.Iters <= 0 || o.TempStart <= 0 {
		t.Fatalf("normalized options invalid: %+v", o)
	}
	o = Options{ParallelSize: 7, Iters: 9, TempStart: 2, TempEnd: 1}.normalized()
	if o.ParallelSize != 7 || o.Iters != 9 || o.TempStart != 2 || o.TempEnd != 1 {
		t.Fatal("explicit options must be preserved")
	}
}

// TestOptionsNormalizedSchedule pins the temperature-schedule contract:
// an inverted schedule never anneals upward (it truncates to a constant
// TempStart), negative temperatures clamp to a greedy zero, and the zero
// value still selects the package default.
func TestOptionsNormalizedSchedule(t *testing.T) {
	o := Options{TempStart: 1, TempEnd: 5}.normalized()
	if o.TempStart != 1 || o.TempEnd != 1 {
		t.Fatalf("inverted schedule must clamp TempEnd to TempStart, got start=%v end=%v", o.TempStart, o.TempEnd)
	}
	o = Options{TempStart: -3, TempEnd: -1}.normalized()
	if o.TempStart != 0 || o.TempEnd != 0 {
		t.Fatalf("negative temperatures must clamp to greedy zero, got start=%v end=%v", o.TempStart, o.TempEnd)
	}
	o = Options{TempEnd: 0.5}.normalized()
	if o.TempStart != 1.0 || o.TempEnd != 0.5 {
		t.Fatalf("zero TempStart must select the default, got start=%v end=%v", o.TempStart, o.TempEnd)
	}
	o = Options{Chains: -2}.normalized()
	if o.Chains != 0 {
		t.Fatalf("negative Chains must normalize to 0, got %d", o.Chains)
	}
}

// mutate returns a copy of c with one random knob reassigned to a random
// different option, plus the index of the knob it changed (-1 when four
// attempts only drew knobs with fewer than two options and the copy is
// unchanged) — mutateIdx on a fresh clone.
func mutate(sp *space.Space, c space.Config, rng *rand.Rand) (space.Config, int) {
	lens, _ := knobRadix(sp)
	m := c.Clone()
	return m, mutateIdx(lens, m, rng)
}

func TestMutateChangesOneKnob(t *testing.T) {
	sp := gridSpace()
	rng := rand.New(rand.NewSource(5))
	c := sp.Random(rng)
	for i := 0; i < 100; i++ {
		m, ki := mutate(sp, c, rng)
		diff := 0
		for k := range m.Index {
			if m.Index[k] != c.Index[k] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("mutation changed %d knobs", diff)
		}
		if ki < 0 || m.Index[ki] == c.Index[ki] {
			t.Fatalf("reported knob %d does not match the mutation", ki)
		}
	}
}

func TestMutateSingleOptionKnobs(t *testing.T) {
	// A space where every knob has one option cannot be mutated; mutate
	// must terminate, return a copy, and report no knob changed.
	sp := space.New(space.NewEnumKnob("only", 3))
	rng := rand.New(rand.NewSource(6))
	c := sp.Random(rng)
	m, ki := mutate(sp, c, rng)
	if !m.Equal(c) {
		t.Fatal("immutable space should return unchanged copy")
	}
	if ki != -1 {
		t.Fatalf("degenerate mutation reported knob %d, want -1", ki)
	}
}

// TestFindMaximaDegenerateSpace is the regression test for the
// no-mutable-knob stall: on a space where every knob has one option, the
// annealer must score the single point once and bail out instead of
// re-offering the unmutated clone for Iters rounds.
func TestFindMaximaDegenerateSpace(t *testing.T) {
	sp := space.New(space.NewEnumKnob("a", 7), space.NewEnumKnob("b", 1))
	obj := scratch(func(batch []space.Config) []float64 {
		out := make([]float64, len(batch))
		for i := range out {
			out[i] = 1
		}
		return out
	})
	rng := rand.New(rand.NewSource(8))
	got := FindMaxima(sp, obj, 5, nil, Options{ParallelSize: 16, Iters: 200}, rng)
	if len(got) != 1 {
		t.Fatalf("one-point space returned %d configs", len(got))
	}
	if obj.inits != 1 || obj.rounds != 0 {
		t.Fatalf("objective called %d/%d times (init/propose) on a degenerate space, want 1/0", obj.inits, obj.rounds)
	}
}

func TestFindMaximaSmallSpace(t *testing.T) {
	// k larger than the whole space: return everything reachable.
	sp := space.New(space.NewEnumKnob("a", 0, 1), space.NewEnumKnob("b", 0, 1))
	rng := rand.New(rand.NewSource(7))
	got := FindMaxima(sp, scratch(peakObjectiveSmall), 100, nil, Options{ParallelSize: 8, Iters: 20}, rng)
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("got %d results from a 4-point space", len(got))
	}
}

func peakObjectiveSmall(batch []space.Config) []float64 {
	out := make([]float64, len(batch))
	for i, c := range batch {
		out[i] = float64(c.Index[0] + c.Index[1])
	}
	return out
}
