package space

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// sample is the original linear-scan draw, kept as the oracle that
// ballSampler.sampleIn must reproduce bit for bit.
//
// sample fills offset with a uniform draw from the ball (including the
// origin; callers filter the zero offset).
func (b *ballSampler) sample(offset []int, rng *rand.Rand) {
	q := b.q
	for i := 0; i < b.dim; i++ {
		rem := b.dim - i - 1
		// Total completions over all k choices equals cum[rem+1][q]
		// (exactly, absent count clamping).
		total := b.cum[rem+1][q]
		draw := rng.Int63n(total)
		assigned := false
		for k := -b.rInt; k <= b.rInt; k++ {
			nn := q - k*k
			if nn < 0 {
				continue
			}
			w := b.cum[rem][nn]
			if draw < w {
				offset[i] = k
				q = nn
				assigned = true
				break
			}
			draw -= w
		}
		if !assigned {
			// Only reachable when count clamping broke the exact identity;
			// fall back to the always-valid zero offset.
			offset[i] = 0
		}
	}
}

// TestBallSamplerUniform verifies the DP lattice-ball sampler draws each
// ball point with equal probability, via a chi-square test on a small ball
// where exact enumeration is feasible.
func TestBallSamplerUniform(t *testing.T) {
	dim := 3
	radius := 2.0
	bs := newBallSampler(dim, radius)

	// Enumerate the exact ball for reference.
	r2 := radius * radius
	type key [3]int
	ball := map[key]int{}
	rInt := int(radius)
	for a := -rInt; a <= rInt; a++ {
		for b := -rInt; b <= rInt; b++ {
			for c := -rInt; c <= rInt; c++ {
				if float64(a*a+b*b+c*c) <= r2 {
					ball[key{a, b, c}] = 0
				}
			}
		}
	}
	n := len(ball) // 33 points for r=2 in 3-D

	rng := rand.New(rand.NewSource(1))
	draws := 33000
	offset := make([]int, dim)
	for i := 0; i < draws; i++ {
		bs.sample(offset, rng)
		k := key{offset[0], offset[1], offset[2]}
		if _, ok := ball[k]; !ok {
			t.Fatalf("sampled point %v outside the ball", offset)
		}
		ball[k]++
	}

	expected := float64(draws) / float64(n)
	chi2 := 0.0
	for _, c := range ball {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// dof = 32; the 0.999 quantile of chi-square(32) is ~62.5.
	if chi2 > 62.5 {
		t.Fatalf("chi-square %.1f exceeds the 99.9%% bound: sampler not uniform", chi2)
	}
}

func TestBallSamplerMatchesCount(t *testing.T) {
	// The DP tables of the sampler and the counter must agree.
	for dim := 1; dim <= 6; dim++ {
		for _, radius := range []float64{1, 2, 3, 4.5} {
			bs := newBallSampler(dim, radius)
			q := int(math.Floor(radius * radius))
			if got, want := bs.cum[dim][q], latticeBallCount(dim, radius*radius); got != want {
				t.Fatalf("dim %d r %v: sampler total %d vs count %d", dim, radius, got, want)
			}
		}
	}
}

func TestBallSamplerHighDim(t *testing.T) {
	// 8-D radius 4.5 (the tau*R ball of the paper's settings): every draw
	// must stay inside the ball.
	bs := newBallSampler(8, 4.5)
	rng := rand.New(rand.NewSource(2))
	offset := make([]int, 8)
	r2 := 4.5 * 4.5
	for i := 0; i < 5000; i++ {
		bs.sample(offset, rng)
		s := 0
		for _, k := range offset {
			s += k * k
		}
		if float64(s) > r2 {
			t.Fatalf("draw %v has squared norm %d > %.2f", offset, s, r2)
		}
	}
}

// adversarialSource wraps a Source and, on about a third of its draws,
// returns a value within gap of 1<<63-1 instead: above the sampler's safe
// bound often enough to drive sampleIn's lazy row resolution, and above
// some rows' Int63n rejection bounds, so their redraw loops run too.
type adversarialSource struct {
	rand.Source
	gap uint64
}

func (a *adversarialSource) Int63() int64 {
	v := a.Source.Int63()
	if v%3 != 0 {
		return v
	}
	return math.MaxInt64 - int64(uint64(v/3)%(a.gap+1))
}

// TestBallSamplerOracleInvariance: sampleIn must give the oracle's
// in-range verdict, the oracle's offsets for in-range draws, and leave the
// RNG where the oracle leaves it, across dimensions, radii (40 in 12-D
// engages count clamping), random ranges and a source that often exceeds
// the rejection bounds.
func TestBallSamplerOracleInvariance(t *testing.T) {
	const trials = 3000
	meta := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 3, 8, 12} {
		for _, radius := range []float64{1, 1.5, 3, 4.5, 6.75, 40} {
			bs := newBallSampler(dim, radius)
			for _, r := range bs.rows {
				// A draw past every completion weight takes the oracle's
				// fallback, offset 0.
				if k := r.pick(r.pre[len(r.pre)-1]); k != 0 {
					t.Fatalf("dim %d r %v: draw past the weights picked %d, want 0", dim, radius, k)
				}
			}
			rInt := int(radius)
			for ranges := 0; ranges < 3; ranges++ {
				lens := make([]int, dim)
				center := make([]int, dim)
				for i := range lens {
					lens[i] = 1 + meta.Intn(2*rInt+3)
					center[i] = meta.Intn(lens[i])
					if ranges == 2 {
						// Every draw in range.
						lens[i] = 2*rInt + 1
						center[i] = rInt
					}
				}
				for _, adversarial := range []bool{false, true} {
					seed := meta.Int63()
					var srcA, srcB rand.Source = rand.NewSource(seed), rand.NewSource(seed)
					if adversarial {
						gap := uint64(math.MaxInt64 - bs.safe)
						if gap < 1<<20 {
							gap = 1 << 20
						}
						srcA = &adversarialSource{Source: srcA, gap: 2 * gap}
						srcB = &adversarialSource{Source: srcB, gap: 2 * gap}
					}
					rngA, rngB := rand.New(srcA), rand.New(srcB)
					want := make([]int, dim)
					got := make([]int, dim)
					inRange := 0
					for tr := 0; tr < trials; tr++ {
						bs.sample(want, rngA)
						in := true
						for i, k := range want {
							if v := center[i] + k; v < 0 || v >= lens[i] {
								in = false
							}
						}
						if bs.sampleIn(got, center, lens, rngB) != in {
							t.Fatalf("dim %d r %v trial %d: sampleIn verdict %v, oracle offset %v", dim, radius, tr, !in, want)
						}
						if in {
							inRange++
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("dim %d r %v trial %d: sampleIn offset %v, oracle %v", dim, radius, tr, got, want)
								}
							}
						}
						if a, b := rngA.Int63(), rngB.Int63(); a != b {
							t.Fatalf("dim %d r %v trial %d: rng diverged (%d vs %d)", dim, radius, tr, a, b)
						}
					}
					if ranges == 2 && inRange != trials {
						t.Fatalf("dim %d r %v: %d of %d draws in range, want all", dim, radius, inRange, trials)
					}
				}
			}
		}
	}
}

// TestInt63nReplicaInvariance: ballRow.draw must return rand.Int63n's
// value and consume the same Int63 values, for powers of two and for
// arguments whose rejection bound discards up to half the Int63 range.
func TestInt63nReplicaInvariance(t *testing.T) {
	ns := []int64{1, 2, 3, 5, 7, 1 << 10, 1000, 1<<31 - 1, 1 << 40, 1<<50 - 3, 1<<62 + 1, 3 << 61, math.MaxInt64}
	meta := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		ns = append(ns, 1+meta.Int63n(math.MaxInt64))
	}
	for _, n := range ns {
		r := ballRow{total: n, bound: int63nBound(n)}
		rngA, rngB := rand.New(rand.NewSource(n)), rand.New(rand.NewSource(n))
		for j := 0; j < 200; j++ {
			if got, want := r.draw(rngA), rngB.Int63n(n); got != want {
				t.Fatalf("n %d draw %d: replica %d, Int63n %d", n, j, got, want)
			}
			if a, b := rngA.Int63(), rngB.Int63(); a != b {
				t.Fatalf("n %d draw %d: replica consumed a different number of values", n, j)
			}
		}
	}
}

// BenchmarkNeighborhoodSampled times one BAO tau*R step on mobilenet-v1's
// first conv (8 knobs, radius 4.5): a ball far beyond the enumeration
// limit, so every call samples, with an 80-point measured set excluded.
func BenchmarkNeighborhoodSampled(b *testing.B) {
	s, err := ForWorkload(tensor.Conv2D(1, 3, 224, 224, 32, 3, 2, 1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	center := s.Random(rng)
	exclude := make(map[uint64]bool)
	for _, c := range s.RandomSample(80, rng) {
		exclude[c.Flat()] = true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Neighborhood(center, 4.5, NeighborhoodOpts{Exclude: exclude}, rand.New(rand.NewSource(int64(i))))
	}
}
