package space

import (
	"fmt"
	"math/rand"
	"strings"
)

// Space is a Cartesian product of knobs. Configurations are addressed
// either by a per-knob option-index vector or by a mixed-radix flat index.
type Space struct {
	knobs      []Knob
	size       uint64
	featureDim int
	saturated  bool // size overflowed uint64 (never happens for paper spaces)
}

// New builds a space over the given knobs. At least one knob is required.
func New(knobs ...Knob) *Space {
	if len(knobs) == 0 {
		//lint:ignore panicpath space-definition invariant: templates are static code, not runtime input
		panic("space: New requires at least one knob")
	}
	s := &Space{knobs: knobs}
	s.size = 1
	for _, k := range knobs {
		if k.Len() <= 0 {
			//lint:ignore panicpath space-definition invariant: templates are static code, not runtime input
			panic(fmt.Sprintf("space: knob %q has no options", k.Name()))
		}
		n := uint64(k.Len())
		if s.size > ^uint64(0)/n {
			s.saturated = true
			s.size = ^uint64(0)
		} else if !s.saturated {
			s.size *= n
		}
		s.featureDim += k.FeatureDim()
	}
	return s
}

// Knobs returns the knob list (owned by the space).
func (s *Space) Knobs() []Knob { return s.knobs }

// NumKnobs returns the number of knobs (the dimensionality of the
// index-vector view used for distances and neighborhoods).
func (s *Space) NumKnobs() int { return len(s.knobs) }

// Size returns the number of configurations (saturating at MaxUint64).
func (s *Space) Size() uint64 { return s.size }

// FeatureDim returns the length of the cost-model feature vector.
func (s *Space) FeatureDim() int { return s.featureDim }

// Knob returns the i-th knob.
func (s *Space) Knob(i int) Knob { return s.knobs[i] }

// KnobByName returns the knob with the given name, or nil.
func (s *Space) KnobByName(name string) Knob {
	for _, k := range s.knobs {
		if k.Name() == name {
			return k
		}
	}
	return nil
}

// Config is one point of a Space: an option index per knob. Configs are
// value types; Index is owned by the Config and safe to retain.
type Config struct {
	space *Space
	Index []int
}

// Space returns the space the config belongs to.
func (c Config) Space() *Space { return c.space }

// FromIndices builds a config from a per-knob option index vector,
// validating ranges.
func (s *Space) FromIndices(idx []int) (Config, error) {
	if len(idx) != len(s.knobs) {
		return Config{}, fmt.Errorf("space: index vector has %d entries, want %d", len(idx), len(s.knobs))
	}
	cp := make([]int, len(idx))
	for i, v := range idx {
		if v < 0 || v >= s.knobs[i].Len() {
			return Config{}, fmt.Errorf("space: knob %q index %d out of range [0,%d)", s.knobs[i].Name(), v, s.knobs[i].Len())
		}
		cp[i] = v
	}
	return Config{space: s, Index: cp}, nil
}

// FromFlat decodes a mixed-radix flat index into a config. The flat index
// is taken modulo Size, so any uint64 is valid input.
func (s *Space) FromFlat(flat uint64) Config {
	if !s.saturated {
		flat %= s.size
	}
	idx := make([]int, len(s.knobs))
	for i := len(s.knobs) - 1; i >= 0; i-- {
		n := uint64(s.knobs[i].Len())
		idx[i] = int(flat % n)
		flat /= n
	}
	return Config{space: s, Index: idx}
}

// Flat encodes the config as its mixed-radix flat index.
func (c Config) Flat() uint64 {
	var flat uint64
	for i, v := range c.Index {
		flat = flat*uint64(c.space.knobs[i].Len()) + uint64(v)
	}
	return flat
}

// Random draws a uniform configuration.
func (s *Space) Random(rng *rand.Rand) Config {
	idx := make([]int, len(s.knobs))
	for i, k := range s.knobs {
		idx[i] = rng.Intn(k.Len())
	}
	return Config{space: s, Index: idx}
}

// RandomSample draws n configurations uniformly without replacement
// (by flat index). If n exceeds the space size the whole space is returned.
func (s *Space) RandomSample(n int, rng *rand.Rand) []Config {
	if !s.saturated && uint64(n) >= s.size {
		out := make([]Config, 0, s.size)
		for f := uint64(0); f < s.size; f++ {
			out = append(out, s.FromFlat(f))
		}
		return out
	}
	seen := make(map[uint64]bool, n)
	out := make([]Config, 0, n)
	for len(out) < n {
		c := s.Random(rng)
		f := c.Flat()
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, c)
	}
	return out
}

// Features returns the log-scaled knob-value feature vector used by the
// learned cost model.
func (c Config) Features() []float64 {
	return c.AppendFeatures(make([]float64, 0, c.space.featureDim))
}

// AppendFeatures appends the config's feature vector (see Features) to dst
// and returns the extended slice.
func (c Config) AppendFeatures(dst []float64) []float64 {
	for i, k := range c.space.knobs {
		dst = k.Feature(dst, c.Index[i])
	}
	return dst
}

// IndexVec returns the option-index vector as float64s. TED distances and
// BAO neighborhoods operate in this integer lattice, matching the paper's
// "radius R ... means the Euclidean distance between points".
func (c Config) IndexVec() []float64 {
	out := make([]float64, len(c.Index))
	for i, v := range c.Index {
		out[i] = float64(v)
	}
	return out
}

// Clone returns a deep copy of the config.
func (c Config) Clone() Config {
	idx := make([]int, len(c.Index))
	copy(idx, c.Index)
	return Config{space: c.space, Index: idx}
}

// Equal reports whether two configs of the same space pick identical options.
func (c Config) Equal(o Config) bool {
	if len(c.Index) != len(o.Index) {
		return false
	}
	for i := range c.Index {
		if c.Index[i] != o.Index[i] {
			return false
		}
	}
	return true
}

// String renders the config as "tile_f=[1,2,4,8] tile_y=...".
func (c Config) String() string {
	parts := make([]string, len(c.Index))
	for i, k := range c.space.knobs {
		parts[i] = k.Name() + "=" + k.Describe(c.Index[i])
	}
	return strings.Join(parts, " ")
}

// SplitFactors returns the factor tuple the config picks for the named
// split knob, or nil when the knob is absent or not a split.
func (c Config) SplitFactors(name string) []int {
	for i, k := range c.space.knobs {
		if k.Name() == name {
			if sk, ok := k.(*SplitKnob); ok {
				return sk.Factors(c.Index[i])
			}
			return nil
		}
	}
	return nil
}

// EnumValue returns the integer value the config picks for the named enum
// knob; ok is false when the knob is absent or not an enum.
func (c Config) EnumValue(name string) (v int, ok bool) {
	for i, k := range c.space.knobs {
		if k.Name() == name {
			if ek, okk := k.(*EnumKnob); okk {
				return ek.Value(c.Index[i]), true
			}
			return 0, false
		}
	}
	return 0, false
}
