// Package sa implements the parallel simulated-annealing optimizer AutoTVM
// uses to maximize its learned cost model over a schedule configuration
// space: a batch of walkers performs knob-mutation random walks under a
// decaying temperature while a top-k tracker collects the best unvisited
// configurations found anywhere along the walk.
//
// The objective is a DeltaObjective: besides scoring each proposal batch
// it learns which single knob each proposal changed relative to its
// walker's current point, and is told when a proposal is accepted — enough
// for an implementation to keep encoded feature rows and cached per-tree
// predictions and rescore each proposal incrementally (see
// internal/tuner's compiled-surrogate objective). An objective that
// ignores the hints and scores from scratch is equally valid.
//
// Walkers can optionally be partitioned into independent parallel chains
// (Options.Chains): each chain anneals its own walker subset under its own
// split-seeded RNG, and the per-chain top-k sets merge into the global
// top-k in fixed chain order, so the result is bit-identical for any
// Options.Workers value. Chains <= 1 is the serial legacy path, bit-exact
// with the original single-chain implementation.
package sa

import (
	"container/heap"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/space"
)

// DeltaObjective scores configurations; higher is better. The annealer
// drives it through a strict protocol, per chain:
//
//  1. InitBatch scores the chain's initial walker points from scratch.
//  2. Each round, ProposeBatch scores the proposal batch; proposals[i]
//     differs from walker i's current point at exactly knob changed[i]
//     (changed[i] < 0 means the proposal is an unchanged clone — a
//     degenerate mutation).
//  3. Commit(i) is called, before the walker's point is replaced, for
//     every accepted proposal: walker i's current point becomes
//     proposals[i] from the most recent ProposeBatch.
//
// Returned score slices are only read until the next call, so
// implementations may reuse one buffer. Fork returns a fresh instance
// (sharing read-only model state) for an additional parallel chain; it is
// called serially before any chain starts.
type DeltaObjective interface {
	InitBatch(points []space.Config) []float64
	ProposeBatch(proposals []space.Config, changed []int) []float64
	Commit(i int)
	Fork() DeltaObjective
}

// Options configures a simulated-annealing search.
//
// Temperature contract: the schedule interpolates linearly from TempStart
// to TempEnd over Iters steps and must be non-increasing. The zero value
// selects the package defaults (TempStart 1.0, TempEnd 0), so TempStart ==
// 0 means "default", not "greedy"; a negative TempStart explicitly
// requests a zero-temperature greedy walk. normalized() clamps rather than
// silently reinterprets: negative temperatures clamp to 0, and an inverted
// schedule (TempEnd > TempStart) is truncated to the constant TempStart —
// it never anneals upward.
type Options struct {
	// ParallelSize is the number of concurrent walkers (AutoTVM: 128).
	ParallelSize int
	// Iters is the number of annealing steps (AutoTVM: 500; we default
	// lower because the landscape is smaller-dimensional).
	Iters int
	// TempStart/TempEnd bound the linear temperature schedule; see the
	// Options contract above for how zero/negative/inverted values are
	// normalized.
	TempStart, TempEnd float64
	// Chains partitions the walkers into this many independent annealing
	// chains run in parallel, each with its own RNG split-seeded from the
	// caller's stream, merged into the top-k in fixed chain order. <= 1
	// keeps the serial single-chain path (bit-exact legacy semantics);
	// any value > 1 changes the sample stream relative to Chains <= 1 but
	// is itself deterministic and Workers-invariant.
	Chains int
	// Workers caps the goroutines running chains when Chains > 1
	// (<= 0: par.Workers()). Purely a scheduling knob: results are
	// bit-identical for every value.
	Workers int
}

// DefaultOptions mirrors a scaled-down AutoTVM SA configuration.
func DefaultOptions() Options {
	return Options{ParallelSize: 96, Iters: 120, TempStart: 1.0, TempEnd: 0.0}
}

// normalized applies defaults and enforces the Options contract: a
// non-increasing, non-negative temperature schedule.
func (o Options) normalized() Options {
	if o.ParallelSize <= 0 {
		o.ParallelSize = 96
	}
	if o.Iters <= 0 {
		o.Iters = 120
	}
	if o.TempStart == 0 {
		o.TempStart = 1.0
	}
	if o.TempStart < 0 {
		o.TempStart = 0
	}
	if o.TempEnd < 0 {
		o.TempEnd = 0
	}
	if o.TempEnd > o.TempStart {
		// Inverted schedule: truncate to a constant-temperature walk
		// instead of silently annealing upward.
		o.TempEnd = o.TempStart
	}
	if o.Chains < 0 {
		o.Chains = 0
	}
	return o
}

// scoredConfig pairs a config with its objective value in the top-k heap.
// The flat index rides along so evictions never re-derive it.
type scoredConfig struct {
	cfg   space.Config
	flat  uint64
	score float64
}

// minHeap keeps the k best entries with the worst on top.
type minHeap []scoredConfig

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].score < h[j].score }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(scoredConfig)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// topK tracks the k best distinct configurations seen, excluding flat
// indices in exclude (shared, read-only).
type topK struct {
	k       int
	h       minHeap
	exclude map[uint64]bool
}

func newTopK(k int, exclude map[uint64]bool) *topK {
	t := &topK{k: k, exclude: exclude}
	heap.Init(&t.h)
	return t
}

// contains reports whether flat index f is currently in the heap. k is
// small (the plan size), so a linear scan over the resident flats beats a
// side map with its hashing, insertion and eviction bookkeeping.
func (t *topK) contains(f uint64) bool {
	for i := range t.h {
		if t.h[i].flat == f {
			return true
		}
	}
	return false
}

// offer clones c before storing it: the annealing loop reuses walker
// buffers across iterations, so anything that outlives the call must own
// its Index. The clone only happens for entries that actually enter the
// heap. f must be c.Flat() — the annealing loop maintains walker flats
// incrementally (one knob changed means one stride added) instead of
// re-deriving the full mixed-radix product on every acceptance.
func (t *topK) offer(c space.Config, f uint64, s float64) {
	if t.h.Len() >= t.k && !(s > t.h[0].score) {
		// Can't displace the current worst: no membership test needed.
		// (Negated comparison so a NaN score is rejected here, exactly as
		// it would fail the displacement test below.)
		return
	}
	if t.contains(f) || (t.exclude != nil && t.exclude[f]) {
		return
	}
	if t.h.Len() < t.k {
		heap.Push(&t.h, scoredConfig{c.Clone(), f, s})
		return
	}
	heap.Pop(&t.h)
	heap.Push(&t.h, scoredConfig{c.Clone(), f, s})
}

// drain empties the tracker and returns its entries best-first.
func (t *topK) drain() []scoredConfig {
	out := make([]scoredConfig, t.h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&t.h).(scoredConfig)
	}
	return out
}

// FindMaxima anneals walkers over the space and returns up to k distinct
// configurations with the highest objective values, excluding flat indices
// present in exclude (typically the already-measured set; read-only during
// the call). Results are ordered best-first. The first chain scores through
// obj itself; each additional parallel chain through a Fork of it.
func FindMaxima(sp *space.Space, obj DeltaObjective, k int, exclude map[uint64]bool, opts Options, rng *rand.Rand) []space.Config {
	opts = opts.normalized()
	if k <= 0 {
		return nil
	}
	// A space where no knob has two options cannot be mutated: every
	// proposal would be an unchanged clone that passes the >= acceptance
	// test, burning Iters objective batches on a single point. Score the
	// initial walkers once and skip the annealing loop entirely.
	mutable := false
	for i := 0; i < sp.NumKnobs(); i++ {
		if sp.Knob(i).Len() >= 2 {
			mutable = true
			break
		}
	}

	chains := opts.Chains
	if chains > opts.ParallelSize {
		chains = opts.ParallelSize
	}
	if chains <= 1 {
		top := runChain(sp, obj, opts.ParallelSize, opts, k, exclude, rng, mutable)
		return configsOf(top.drain())
	}

	// Parallel chains: walker counts and RNG seeds are fixed serially up
	// front (seeds split off the caller's stream in chain order), each
	// chain runs independently writing only its own slot, and the
	// per-chain bests merge in chain order — Workers only schedules, it
	// never changes what is computed.
	type chainState struct {
		//lint:ignore rngfield per-call scratch for one FindMaxima invocation, never snapshotted
		rng     *rand.Rand
		obj     DeltaObjective
		walkers int
		top     *topK
	}
	cs := make([]chainState, chains)
	base, extra := opts.ParallelSize/chains, opts.ParallelSize%chains
	for c := range cs {
		w := base
		if c < extra {
			w++
		}
		o := obj
		if c > 0 {
			o = obj.Fork()
		}
		cs[c] = chainState{rng: rand.New(rand.NewSource(rng.Int63())), obj: o, walkers: w}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = par.Workers()
	}
	par.For(chains, workers, func(c int) {
		s := &cs[c]
		s.top = runChain(sp, s.obj, s.walkers, opts, k, exclude, s.rng, mutable)
	})
	merged := newTopK(k, exclude)
	for c := range cs {
		for _, e := range cs[c].top.drain() {
			merged.offer(e.cfg, e.flat, e.score)
		}
	}
	return configsOf(merged.drain())
}

func configsOf(entries []scoredConfig) []space.Config {
	out := make([]space.Config, len(entries))
	for i, e := range entries {
		out[i] = e.cfg
	}
	return out
}

// runChain anneals one chain of walkers and returns its top-k tracker.
// With the caller's RNG and walkers == ParallelSize this is the exact
// legacy single-chain loop: same draw order, same acceptance rule, same
// offer sequence.
func runChain(sp *space.Space, obj DeltaObjective, walkers int, opts Options, k int, exclude map[uint64]bool, rng *rand.Rand, mutable bool) *topK {
	lens, strides := knobRadix(sp)
	points := make([]space.Config, walkers)
	flats := make([]uint64, walkers)
	for i := range points {
		points[i] = sp.Random(rng)
		flats[i] = points[i].Flat()
	}
	scores := make([]float64, walkers)
	copy(scores, obj.InitBatch(points))

	top := newTopK(k, exclude)
	for i, c := range points {
		top.offer(c, flats[i], scores[i])
	}
	if !mutable {
		return top
	}

	// Proposal buffers are allocated once and reused every iteration; on
	// acceptance a walker swaps buffers with its proposal instead of
	// allocating. Anything that escapes the loop (topK entries) is cloned at
	// insertion, so reuse never aliases retained configs.
	proposals := make([]space.Config, walkers)
	for i := range proposals {
		proposals[i] = points[i].Clone()
	}
	changed := make([]int, walkers)
	for i := range changed {
		changed[i] = -1
	}
	propFlats := make([]uint64, walkers)
	propScores := make([]float64, walkers)
	for it := 0; it < opts.Iters; it++ {
		frac := float64(it) / float64(opts.Iters)
		temp := opts.TempStart + (opts.TempEnd-opts.TempStart)*frac
		for i, c := range points {
			// Loop invariant: proposals[i] differs from points[i] at most at
			// the knob it mutated last round (true after both accept — the
			// buffers swap — and reject), so one repair write re-syncs it
			// instead of a full Index copy.
			if pk := changed[i]; pk >= 0 {
				proposals[i].Index[pk] = c.Index[pk]
			}
			ki := mutateIdx(lens, proposals[i], rng)
			changed[i] = ki
			// One knob moved, so the proposal's flat index moves by that
			// knob's stride times the option delta — mod-2^64 arithmetic
			// reproduces Config.Flat exactly, negative deltas included.
			if ki >= 0 {
				delta := uint64(int64(proposals[i].Index[ki] - c.Index[ki]))
				propFlats[i] = flats[i] + delta*strides[ki]
			} else {
				propFlats[i] = flats[i]
			}
		}
		copy(propScores, obj.ProposeBatch(proposals, changed))
		for i := range points {
			accept := propScores[i] >= scores[i]
			if !accept && temp > 0 {
				u := rng.Float64()
				x := (propScores[i] - scores[i]) / temp
				if x <= -44 {
					// Exp(x) < 2^-63, below the smallest nonzero Float64 the
					// generator emits, so the Metropolis test reduces to
					// u == 0 — same decision, same draw, no Exp call.
					accept = u == 0
				} else {
					accept = u < math.Exp(x)
				}
			}
			if accept {
				obj.Commit(i)
				points[i], proposals[i] = proposals[i], points[i]
				flats[i] = propFlats[i]
				scores[i] = propScores[i]
				top.offer(points[i], flats[i], scores[i])
			}
		}
	}
	return top
}

// knobRadix precomputes each knob's option count and mixed-radix stride
// (the amount Config.Flat changes per unit step of that knob), so the
// annealing loop neither re-queries knob interfaces nor re-derives full
// flat products per iteration.
func knobRadix(sp *space.Space) ([]int, []uint64) {
	n := sp.NumKnobs()
	lens := make([]int, n)
	strides := make([]uint64, n)
	stride := uint64(1)
	for i := n - 1; i >= 0; i-- {
		lens[i] = sp.Knob(i).Len()
		strides[i] = stride
		stride *= uint64(lens[i])
	}
	return lens, strides
}

// mutateIdx reassigns one random knob of dst to a random different option
// and returns that knob's index (-1 when four attempts only drew knobs
// with fewer than two options and dst is unchanged). lens holds the
// per-knob option counts of dst's space. The annealing loop calls it on a
// proposal buffer it has already re-synced to the walker's current point,
// so no Index copy is needed.
func mutateIdx(lens []int, dst space.Config, rng *rand.Rand) int {
	n := len(lens)
	for attempt := 0; attempt < 4; attempt++ {
		ki := rng.Intn(n)
		kl := lens[ki]
		if kl < 2 {
			continue
		}
		nv := rng.Intn(kl - 1)
		if nv >= dst.Index[ki] {
			nv++
		}
		dst.Index[ki] = nv
		return ki
	}
	return -1
}
