package space

import (
	"math"
	"math/rand"
)

// NeighborhoodOpts tunes Neighborhood enumeration.
type NeighborhoodOpts struct {
	// MaxCandidates caps the returned set; 0 means DefaultMaxCandidates.
	// When the exact lattice ball holds more points than the cap, a uniform
	// subsample of the ball is returned instead of a truncated enumeration.
	MaxCandidates int
	// Exclude drops configs whose flat index is present (typically the
	// already-measured set), keeping BAO from re-proposing known points.
	Exclude map[uint64]bool
}

// DefaultMaxCandidates bounds one BAO step's candidate set. 8192 keeps the
// Γ-fold surrogate evaluation of a step in the low milliseconds.
const DefaultMaxCandidates = 8192

// Neighborhood returns the configurations whose knob-index vectors lie
// within Euclidean distance radius of center (excluding center itself),
// clamped to valid option ranges. This realizes the search scope C_t of the
// paper's Algorithms 3 and 4.
//
// The integer lattice ball is enumerated exactly when its size (computed by
// dynamic programming, before touching any config) is within the candidate
// cap; otherwise points are rejection-sampled uniformly from the ball. The
// result order is deterministic for the enumerated case and rng-determined
// for the sampled case.
func (s *Space) Neighborhood(center Config, radius float64, opts NeighborhoodOpts, rng *rand.Rand) []Config {
	if radius <= 0 {
		return nil
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = DefaultMaxCandidates
	}
	r2 := radius * radius
	dim := len(s.knobs)
	ballSize := latticeBallCount(dim, r2)
	// Exact enumeration (with deterministic thinning) is cheaper than
	// rejection sampling up to fairly large balls, because the rejection
	// acceptance rate of a ball inside its bounding box collapses with
	// dimension.
	enumLimit := int64(maxCand) * 4
	if enumLimit < 65536 {
		enumLimit = 65536
	}
	if ballSize <= enumLimit {
		return s.enumerateBall(center, r2, maxCand, opts.Exclude)
	}
	return s.sampleBall(center, radius, maxCand, opts.Exclude, rng)
}

// latticeBallCount counts integer lattice points within squared distance r2
// of the origin in dim dimensions (including the origin), via the DP
// N(d, r2) = sum_k N(d-1, r2 - k^2).
func latticeBallCount(dim int, r2 float64) int64 {
	rInt := int(math.Floor(math.Sqrt(r2)))
	// counts[q] = number of (d-dim) lattice vectors with squared norm exactly q.
	q := int(math.Floor(r2))
	counts := make([]int64, q+1)
	counts[0] = 1
	const cap64 = int64(1) << 40
	for d := 0; d < dim; d++ {
		next := make([]int64, q+1)
		for norm, c := range counts {
			if c == 0 {
				continue
			}
			for k := -rInt; k <= rInt; k++ {
				nn := norm + k*k
				if nn > q {
					continue
				}
				next[nn] += c
				if next[nn] > cap64 {
					next[nn] = cap64
				}
			}
		}
		counts = next
	}
	var total int64
	for _, c := range counts {
		total += c
		if total > cap64 {
			return cap64
		}
	}
	return total
}

// enumerateBall walks the lattice ball exactly, in lexicographic offset
// order, then uniform-subsamples if the in-range result exceeds maxCand
// (rare: clamping usually keeps it below the DP bound).
func (s *Space) enumerateBall(center Config, r2 float64, maxCand int, exclude map[uint64]bool) []Config {
	dim := len(s.knobs)
	rInt := int(math.Floor(math.Sqrt(r2)))
	var out []Config
	idx := make([]int, dim)
	var rec func(pos int, used float64)
	rec = func(pos int, used float64) {
		if pos == dim {
			same := true
			for i := range idx {
				if idx[i] != center.Index[i] {
					same = false
					break
				}
			}
			if same {
				return
			}
			cp := make([]int, dim)
			copy(cp, idx)
			c := Config{space: s, Index: cp}
			if exclude != nil && exclude[c.Flat()] {
				return
			}
			out = append(out, c)
			return
		}
		kLen := s.knobs[pos].Len()
		for k := -rInt; k <= rInt; k++ {
			kk := float64(k * k)
			if used+kk > r2 {
				continue
			}
			v := center.Index[pos] + k
			if v < 0 || v >= kLen {
				continue
			}
			idx[pos] = v
			rec(pos+1, used+kk)
		}
	}
	rec(0, 0)
	if len(out) > maxCand {
		// Deterministic uniform thinning: take every stride-th point.
		stride := float64(len(out)) / float64(maxCand)
		thin := make([]Config, 0, maxCand)
		for i := 0; i < maxCand; i++ {
			thin = append(thin, out[int(float64(i)*stride)])
		}
		out = thin
	}
	return out
}

// sampleBall draws offsets exactly uniformly from the lattice ball via the
// same norm-count dynamic program used by latticeBallCount, then rejects
// clamping violations, the zero offset, duplicates and the excluded set.
// Clamping dominates: BAO's tau*R ball reaches far past the few options of
// most knobs, so on paper-sized spaces ~99% of draws leave the valid ranges
// and a typical call spends its whole budget of 32*maxCand trials. Each
// trial is therefore kept cheap: a draw stops resolving offsets at its
// first out-of-range coordinate (ballSampler.sampleIn), the flat index is
// built without materializing the config, and only accepted points are
// allocated.
func (s *Space) sampleBall(center Config, radius float64, maxCand int, exclude map[uint64]bool, rng *rand.Rand) []Config {
	dim := len(s.knobs)
	bs := newBallSampler(dim, radius)
	lens := make([]int, dim)
	for i, k := range s.knobs {
		lens[i] = k.Len()
	}
	seen := make(map[uint64]bool, maxCand)
	out := make([]Config, 0, maxCand)
	maxTrials := maxCand * 32
	offset := make([]int, dim)
	for t := 0; t < maxTrials && len(out) < maxCand; t++ {
		if !bs.sampleIn(offset, center.Index, lens, rng) {
			continue
		}
		var flat uint64
		zero := true
		for i, k := range offset {
			if k != 0 {
				zero = false
			}
			flat = flat*uint64(lens[i]) + uint64(center.Index[i]+k)
		}
		if zero || seen[flat] || (exclude != nil && exclude[flat]) {
			continue
		}
		seen[flat] = true
		idx := make([]int, dim)
		for i, k := range offset {
			idx[i] = center.Index[i] + k
		}
		out = append(out, Config{space: s, Index: idx})
	}
	return out
}

// ballSampler samples integer vectors uniformly from the dim-dimensional
// lattice ball of the given radius. cum[d][q] counts d-dimensional vectors
// with squared norm <= q; coordinates are drawn sequentially with
// probability proportional to the count of completions.
//
// Coordinate i, with rem = dim-1-i coordinates after it and q of the
// squared-norm budget left, draws d = rng.Int63n(cum[rem+1][q]) and takes
// the first k in -rInt..rInt whose running completion weight
// sum_{j<=k} cum[rem][q-j*j] exceeds d (k = 0 with q unchanged when none
// does, which only count clamping could cause). The rows table holds that
// computation's inputs precomputed for every (rem, q): the Int63n argument,
// its rejection bound and the prefix weights, so a coordinate costs one
// Int63, a modulo and a short branch-free count.
type ballSampler struct {
	dim  int
	rInt int
	q    int
	cum  [][]int64
	rows []ballRow // row (rem, q) at rem*(q+1)+q
	// safe is the smallest rejection bound over all rows: an Int63 value
	// <= safe is accepted by Int63n whatever the row.
	safe    int64
	pending []int64 // sampleIn's scratch for unresolved Int63 values
}

// ballRow is the draw of one coordinate from one (rem, q) state.
type ballRow struct {
	total int64 // the Int63n argument, cum[rem+1][q]
	bound int64 // int63nBound(total)
	// pre holds the prefix weights for k = -kq..kq, where kq is the largest
	// k <= rInt with k*k <= q (the others have no completions).
	pre []int64
}

// int63nBound is the largest Int63 value math/rand's Int63n(n) accepts.
// Int63n(n) consumes Int63 values until one is <= the bound and returns it
// modulo n; for powers of two the bound is 1<<63-1 and the masked result
// equals the modulo, so one formula covers every n > 0.
func int63nBound(n int64) int64 {
	return int64((1 << 63) - 1 - (1<<63)%uint64(n))
}

// draw returns rng.Int63n(r.total), consuming the same Int63 values.
func (r *ballRow) draw(rng *rand.Rand) int64 {
	v := rng.Int63()
	for v > r.bound {
		v = rng.Int63()
	}
	return v % r.total
}

// pick maps a draw to the coordinate's offset: the first k whose prefix
// weight exceeds d, or 0 when none does.
func (r *ballRow) pick(d int64) int {
	above := 0
	for _, p := range r.pre {
		above += int(uint64(d-p) >> 63) // 1 iff d < p
	}
	if above == 0 {
		return 0
	}
	kq := (len(r.pre) - 1) / 2
	return len(r.pre) - above - kq
}

func newBallSampler(dim int, radius float64) *ballSampler {
	q := int(math.Floor(radius * radius))
	rInt := int(math.Floor(radius))
	// exact[d][n] = number of d-dim vectors with squared norm exactly n.
	exact := make([]int64, q+1)
	exact[0] = 1
	cum := make([][]int64, dim+1)
	// Counts are clamped far below overflow; clamping only engages for
	// balls with >2^50 points, where near-uniformity is indistinguishable
	// from uniformity for a few thousand draws.
	const countCap = int64(1) << 50
	toCum := func(ex []int64) []int64 {
		c := make([]int64, q+1)
		var run int64
		for n := 0; n <= q; n++ {
			run += ex[n]
			if run > countCap {
				run = countCap
			}
			c[n] = run
		}
		return c
	}
	cum[0] = toCum(exact)
	for d := 1; d <= dim; d++ {
		next := make([]int64, q+1)
		for n, c := range exact {
			if c == 0 {
				continue
			}
			for k := -rInt; k <= rInt; k++ {
				nn := n + k*k
				if nn <= q {
					next[nn] += c
					if next[nn] > countCap {
						next[nn] = countCap
					}
				}
			}
		}
		exact = next
		cum[d] = toCum(exact)
	}

	// kq[n] bounds the offsets that fit a squared-norm budget of n.
	kq := make([]int, q+1)
	width := 0
	for n := range kq {
		if n > 0 {
			kq[n] = kq[n-1]
		}
		for kq[n] < rInt && (kq[n]+1)*(kq[n]+1) <= n {
			kq[n]++
		}
		width += 2*kq[n] + 1
	}
	b := &ballSampler{dim: dim, rInt: rInt, q: q, cum: cum,
		rows: make([]ballRow, dim*(q+1)), safe: math.MaxInt64, pending: make([]int64, 0, dim)}
	pre := make([]int64, 0, dim*width)
	for rem := 0; rem < dim; rem++ {
		for n := 0; n <= q; n++ {
			start := len(pre)
			var run int64
			for k := -kq[n]; k <= kq[n]; k++ {
				run += cum[rem][n-k*k]
				pre = append(pre, run)
			}
			total := cum[rem+1][n]
			r := ballRow{total: total, bound: int63nBound(total), pre: pre[start:len(pre):len(pre)]}
			if r.bound < b.safe {
				b.safe = r.bound
			}
			b.rows[rem*(q+1)+n] = r
		}
	}
	return b
}

// row returns coordinate i's draw with q of the squared-norm budget left.
func (b *ballSampler) row(i, q int) *ballRow {
	return &b.rows[(b.dim-1-i)*(b.q+1)+q]
}

// sampleIn draws one offset uniformly from the ball (the origin included;
// callers filter it) and reports whether center+offset lies inside lens's
// ranges. When it does, offset holds the draw; otherwise offset's contents
// are unspecified. Either way the rng advances exactly as a full draw of
// every coordinate would, so the trial sequence does not depend on the
// ranges.
//
// After the first out-of-range coordinate the remaining offsets are not
// needed, only their Int63 consumption. Each takes one Int63, and a value
// <= safe is accepted by every row, so it is merely recorded. A value
// above safe might be rejected by its row, which depends on the offsets
// before it: the recorded values are then resolved to find that row, and
// the row's rejection loop runs exactly as Int63n would.
func (b *ballSampler) sampleIn(offset, center, lens []int, rng *rand.Rand) bool {
	q := b.q
	for i := range offset {
		r := b.row(i, q)
		k := r.pick(r.draw(rng))
		offset[i] = k
		q -= k * k
		if v := center[i] + k; v < 0 || v >= lens[i] {
			b.skip(i+1, q, rng)
			return false
		}
	}
	return true
}

// skip consumes the Int63 values of coordinates i..dim-1 for a draw whose
// budget before coordinate i is q.
func (b *ballSampler) skip(i, q int, rng *rand.Rand) {
	pending := b.pending[:0]
	for ; i < b.dim; i++ {
		v := rng.Int63()
		if v > b.safe {
			first := i - len(pending)
			for j, u := range pending {
				r := b.row(first+j, q)
				k := r.pick(u % r.total)
				q -= k * k
			}
			pending = pending[:0]
			bound := b.row(i, q).bound
			for v > bound {
				v = rng.Int63()
			}
		}
		pending = append(pending, v)
	}
}
