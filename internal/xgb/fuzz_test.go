package xgb

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// compiledSanity keeps malformed inputs from tripping the fixed-step walk:
// it verifies the self-loop invariant of every leaf and that internal
// children stay inside the tree's range.
func compiledSanity(c *CompiledModel) error {
	for t := 0; t < c.ntrees; t++ {
		lo, hi := c.off[t], c.off[t+1]
		for i := lo; i < hi; i++ {
			nd := c.nodes[i]
			if nd.left < lo || nd.left >= hi || nd.right < lo || nd.right >= hi {
				return fmt.Errorf("tree %d node %d: child out of range", t, i-lo)
			}
			if (nd.left == i) != (nd.right == i) {
				return fmt.Errorf("tree %d node %d: half self-loop", t, i-lo)
			}
		}
	}
	return nil
}

// fuzzBuildModel decodes arbitrary fuzz bytes into a structurally valid
// ensemble (children always point to strictly later indices, every walk
// terminates in a leaf) while letting thresholds and leaf values take any
// bit pattern, including NaN and ±Inf. The compiler must accept every such
// model and reproduce the pointer predictor bit for bit.
func fuzzBuildModel(data []byte) (*Model, []float64) {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		var buf [8]byte
		n := copy(buf[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	nfeat := int(next()%8) + 1
	ntrees := int(next() % 5)
	m := &Model{base: math.Float64frombits(next()), nfeat: nfeat}
	for t := 0; t < ntrees; t++ {
		nnodes := int(next()%16) + 1
		nodes := make([]treeNode, nnodes)
		for i := range nodes {
			// A node is a leaf when the fuzz stream says so, or when no
			// later index remains for both children.
			isLeaf := next()%3 == 0 || i+2 >= nnodes
			if isLeaf {
				nodes[i] = treeNode{feature: -1, value: math.Float64frombits(next())}
				continue
			}
			span := nnodes - (i + 1)
			l := i + 1 + int(next()%uint64(span))
			r := i + 1 + int(next()%uint64(span))
			nodes[i] = treeNode{
				feature:   int(next() % uint64(nfeat)),
				threshold: math.Float64frombits(next()),
				left:      int32(l),
				right:     int32(r),
			}
		}
		m.trees = append(m.trees, tree{nodes: nodes})
	}
	x := make([]float64, nfeat)
	for i := range x {
		x[i] = math.Float64frombits(next())
	}
	return m, x
}

// FuzzCompiledPredict drives the SoA walker over adversarial ensembles:
// arbitrary shapes (empty, single-leaf, skewed DAG-ish child fan-in),
// arbitrary float bit patterns in thresholds, values, and inputs. The
// compiled form must pass its structural sanity check and agree with the
// pointer predictor on every bit.
func FuzzCompiledPredict(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 256))
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = byte(i*37 + 11)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, x := fuzzBuildModel(data)
		c := m.Compile()
		if err := compiledSanity(c); err != nil {
			t.Fatalf("compiled sanity: %v", err)
		}
		want := m.Predict(x)
		got := c.Predict(x)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("Predict mismatch: pointer %x, compiled %x", math.Float64bits(want), math.Float64bits(got))
		}
		// Per-tree decomposition must rebuild the sum exactly.
		s := c.Base()
		for tr := 0; tr < c.NumTrees(); tr++ {
			s += c.PredictTree(tr, x)
		}
		if math.Float64bits(want) != math.Float64bits(s) {
			t.Fatalf("tree sum mismatch: pointer %x, rebuilt %x", math.Float64bits(want), math.Float64bits(s))
		}
		// Path walkers: scalar and packed-pair forms must agree with the
		// plain per-tree walk on values, and with each other on masks, for
		// adversarial shapes too.
		items := make([]int64, 0, 2*c.NumTrees())
		for tr := 0; tr < c.NumTrees(); tr++ {
			v, msk := c.PredictTreePath(tr, x)
			if math.Float64bits(v) != math.Float64bits(c.PredictTree(tr, x)) {
				t.Fatalf("tree %d: PredictTreePath value differs from PredictTree", tr)
			}
			if msk&1 == 0 {
				t.Fatalf("tree %d: path mask %#x misses the root", tr, msk)
			}
			items = append(items, PackPair(int32(tr), 0), PackPair(int32(tr), 0))
		}
		vals := make([]float64, len(items))
		masks := make([]uint64, len(items))
		c.PredictPairsPath(items, x, vals, masks)
		for j, it := range items {
			v, msk := c.PredictTreePath(int(PairTree(it)), x)
			if math.Float64bits(vals[j]) != math.Float64bits(v) || masks[j] != msk {
				t.Fatalf("item %d (tree %d): PredictPairsPath (%x, %#x), PredictTreePath (%x, %#x)",
					j, PairTree(it), math.Float64bits(vals[j]), masks[j], math.Float64bits(v), msk)
			}
		}
	})
}
