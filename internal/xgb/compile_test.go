package xgb

import (
	"math"
	"math/rand"
	"testing"
)

// trainRandom fits an ensemble on random data under the given parameter
// tweaks and returns it with a scoring pool.
func trainRandom(t *testing.T, seed int64, mut func(*Params)) (*Model, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 40 + rng.Intn(200)
	d := 1 + rng.Intn(16)
	X, y := benchData(n, d, seed+1)
	p := DefaultParams()
	p.NumRounds = 1 + rng.Intn(32)
	p.MaxDepth = 1 + rng.Intn(7)
	p.MaxBins = 2 + rng.Intn(40)
	p.Seed = seed
	if mut != nil {
		mut(&p)
	}
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := benchData(257, d, seed+2)
	return m, pool
}

// TestCompiledMatchesPointer is the differential contract of the SoA
// compiler: over randomized ensembles (depths, bins, subsampling, rank
// objective), every compiled prediction — single-row, per-tree, per-tree
// path walk and packed-pair walk — must be bit-identical to the
// pointer-tree predictor.
func TestCompiledMatchesPointer(t *testing.T) {
	muts := []func(*Params){
		nil,
		func(p *Params) { p.MaxDepth = 1 },
		func(p *Params) { p.Subsample = 0.7; p.ColSample = 0.6 },
		func(p *Params) { p.Objective = ObjPairwiseRank },
		func(p *Params) { p.NumRounds = 1 },
		func(p *Params) { p.Gamma = 5; p.MinChildWeight = 8 }, // forces shallow/leaf-only trees
	}
	for seed := int64(0); seed < 6; seed++ {
		for mi, mut := range muts {
			m, pool := trainRandom(t, 100*seed+int64(mi), mut)
			c := m.Compile()
			if c.NumTrees() != m.NumTrees() || c.NumFeatures() != m.NumFeatures() {
				t.Fatalf("seed %d/%d: compiled shape mismatch", seed, mi)
			}
			assertCompiledMatches(t, m, c, pool)
		}
	}
}

func assertCompiledMatches(t *testing.T, m *Model, c *CompiledModel, pool [][]float64) {
	t.Helper()
	want := predictAll(m, pool)
	dim := m.NumFeatures()
	flat := make([]float64, len(pool)*dim)
	items := make([]int64, 0, len(pool)*c.NumTrees())
	for i, row := range pool {
		copy(flat[i*dim:(i+1)*dim], row)
		for tr := 0; tr < c.NumTrees(); tr++ {
			items = append(items, PackPair(int32(tr), i*dim))
		}
	}
	vals := make([]float64, len(items))
	masks := make([]uint64, len(items))
	c.PredictPairsPath(items, flat, vals, masks)
	for i, row := range pool {
		if math.Float64bits(want[i]) != math.Float64bits(c.Predict(row)) {
			t.Fatalf("row %d: Predict differs from pointer model", i)
		}
		// Per-tree contributions must rebuild the exact sum, and every
		// per-tree walk form must return the same leaf.
		s := c.Base()
		for tr := 0; tr < c.NumTrees(); tr++ {
			v := c.PredictTree(tr, row)
			pv, pm := c.PredictTreePath(tr, row)
			if math.Float64bits(pv) != math.Float64bits(v) {
				t.Fatalf("row %d tree %d: PredictTreePath differs from PredictTree", i, tr)
			}
			j := i*c.NumTrees() + tr
			if math.Float64bits(vals[j]) != math.Float64bits(v) || masks[j] != pm {
				t.Fatalf("row %d tree %d: PredictPairsPath differs from PredictTreePath", i, tr)
			}
			s += v
		}
		if math.Float64bits(s) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: tree contributions do not rebuild the prediction", i)
		}
	}
}

// TestCompiledSingleLeafTrees trains on constant targets, which makes every
// split gainless: the ensemble degenerates to single-leaf trees, the
// compiled walk degenerates to zero steps.
func TestCompiledSingleLeafTrees(t *testing.T) {
	X, _ := benchData(64, 6, 7)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 3.25
	}
	p := DefaultParams()
	p.NumRounds = 8
	m, err := Train(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Compile()
	for tr := 0; tr < c.NumTrees(); tr++ {
		if c.steps[tr] != 0 {
			t.Fatalf("tree %d: depth %d, want 0 for single-leaf tree", tr, c.steps[tr])
		}
	}
	pool, _ := benchData(33, 6, 8)
	assertCompiledMatches(t, m, c, pool)
}

// TestCompiledMissingFeatureDefault pins NaN routing: a NaN feature fails
// every x <= threshold test, so both predictors must route it to the right
// child at every split on that feature.
func TestCompiledMissingFeatureDefault(t *testing.T) {
	m, pool := trainRandom(t, 55, nil)
	c := m.Compile()
	rng := rand.New(rand.NewSource(9))
	for _, row := range pool {
		nan := rng.Intn(len(row))
		row[nan] = math.NaN()
		if rng.Intn(2) == 0 {
			row[(nan+1)%len(row)] = math.Inf(1 - 2*rng.Intn(2))
		}
	}
	assertCompiledMatches(t, m, c, pool)
}

// TestCompiledEmptyEnsemble covers the degenerate compiled form: no trees,
// prediction is the base score.
func TestCompiledEmptyEnsemble(t *testing.T) {
	m := &Model{base: 1.5, nfeat: 3}
	c := m.Compile()
	x := []float64{0, 1, 2}
	if got := c.Predict(x); got != 1.5 {
		t.Fatalf("empty ensemble predicts %v, want base 1.5", got)
	}
	if c.NumTrees() != 0 {
		t.Fatalf("empty ensemble compiled to %d trees", c.NumTrees())
	}
}

// TestCompiledTreesTouching verifies the per-tree feature sets against the
// pointer trees, and the semantic guarantee: a tree not touching a feature
// range predicts identically for rows differing only inside it.
func TestCompiledTreesTouching(t *testing.T) {
	m, pool := trainRandom(t, 77, nil)
	c := m.Compile()
	d := m.NumFeatures()
	// Reference feature sets straight off the pointer nodes.
	for tr := range m.trees {
		used := make(map[int]bool)
		for _, n := range m.trees[tr].nodes {
			if n.feature >= 0 {
				used[n.feature] = true
			}
		}
		for f := 0; f < d; f++ {
			if used[f] != c.TreeUsesFeature(tr, f) {
				t.Fatalf("tree %d feature %d: mask %v, pointer nodes say %v", tr, f, c.TreeUsesFeature(tr, f), used[f])
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for f := 0; f < d; f++ {
		touching := make(map[int]bool)
		for _, tr := range c.TreesTouching(f, f+1) {
			touching[tr] = true
		}
		for tr := 0; tr < c.NumTrees(); tr++ {
			if touching[tr] {
				continue
			}
			row := append([]float64(nil), pool[rng.Intn(len(pool))]...)
			before := c.PredictTree(tr, row)
			row[f] = rng.NormFloat64() * 100
			after := c.PredictTree(tr, row)
			if math.Float64bits(before) != math.Float64bits(after) {
				t.Fatalf("tree %d claims not to touch feature %d but prediction changed", tr, f)
			}
		}
	}
}

// TestCompiledPathWalks is the differential contract of the path-reporting
// walkers behind the SA objective's signature gate. PredictTreePath must
// return PredictTree's exact value plus the mask of visited node ordinals
// of the real root-to-leaf walk (leaf included), verified against an
// independent scalar walk over the SoA nodes; PredictPairsPath over an
// arbitrary packed (tree, row-offset) work list — duplicate trees, rows in
// scrambled order, length straddling the tile size — must reproduce the
// scalar walker pair by pair, values and masks both.
func TestCompiledPathWalks(t *testing.T) {
	muts := []func(*Params){
		nil,
		func(p *Params) { p.Gamma = 5; p.MinChildWeight = 8 }, // shallow/leaf-only trees
	}
	for seed := int64(0); seed < 4; seed++ {
		for mi, mut := range muts {
			m, pool := trainRandom(t, 500+100*seed+int64(mi), mut)
			c := m.Compile()
			// Independent reference walk: follow the SoA nodes, collecting
			// ordinals, until the self-loop leaf holds the walk in place.
			refWalk := func(tr int, x []float64) (float64, uint64) {
				root := c.off[tr]
				i := root
				var mask uint64
				for {
					mask |= 1 << (uint(i-root) & 63)
					nd := c.nodes[i]
					next := nd.right
					if x[nd.feat] <= nd.thresh {
						next = nd.left
					}
					if next == i {
						return c.value[i], mask
					}
					i = next
				}
			}
			dim := c.NumFeatures()
			rows := make([]float64, len(pool)*dim)
			for i, row := range pool {
				copy(rows[i*dim:(i+1)*dim], row)
			}
			var items []int64
			var wantVal []float64
			var wantMask []uint64
			rng := rand.New(rand.NewSource(seed))
			for tr := 0; tr < c.NumTrees(); tr++ {
				if cnt := c.TreeNodeCount(tr); cnt <= 0 {
					t.Fatalf("tree %d: node count %d", tr, cnt)
				}
				for rep := 0; rep < 2; rep++ { // duplicate trees in the work list
					ri := rng.Intn(len(pool))
					v, msk := c.PredictTreePath(tr, pool[ri])
					rv, rmsk := refWalk(tr, pool[ri])
					if math.Float64bits(v) != math.Float64bits(rv) || msk != rmsk {
						t.Fatalf("tree %d row %d: PredictTreePath (%x, %#x) vs reference walk (%x, %#x)",
							tr, ri, math.Float64bits(v), msk, math.Float64bits(rv), rmsk)
					}
					if math.Float64bits(v) != math.Float64bits(c.PredictTree(tr, pool[ri])) {
						t.Fatalf("tree %d row %d: PredictTreePath value differs from PredictTree", tr, ri)
					}
					items = append(items, PackPair(int32(tr), ri*dim))
					wantVal = append(wantVal, v)
					wantMask = append(wantMask, msk)
				}
			}
			rng.Shuffle(len(items), func(i, j int) {
				items[i], items[j] = items[j], items[i]
				wantVal[i], wantVal[j] = wantVal[j], wantVal[i]
				wantMask[i], wantMask[j] = wantMask[j], wantMask[i]
			})
			vals := make([]float64, len(items))
			masks := make([]uint64, len(items))
			c.PredictPairsPath(items, rows, vals, masks)
			for j, it := range items {
				if math.Float64bits(vals[j]) != math.Float64bits(wantVal[j]) || masks[j] != wantMask[j] {
					t.Fatalf("item %d (tree %d): PredictPairsPath (%x, %#x), scalar walker (%x, %#x)",
						j, PairTree(it), math.Float64bits(vals[j]), masks[j], math.Float64bits(wantVal[j]), wantMask[j])
				}
			}
		}
	}
}

// TestCompiledTreeSplits pins the split-visitor contract the signature gate
// builds on: TreeSplits must report exactly the non-leaf SoA nodes of the
// tree — ordinals unique and in range, features and thresholds matching the
// nodes — and every ordinal PredictTreePath ever sets below the leaf must
// belong to a reported split.
func TestCompiledTreeSplits(t *testing.T) {
	m, pool := trainRandom(t, 909, nil)
	c := m.Compile()
	for tr := 0; tr < c.NumTrees(); tr++ {
		root := c.off[tr]
		cnt := c.TreeNodeCount(tr)
		splits := make(map[int]cnode)
		c.TreeSplits(tr, func(ord, f int, th float64) {
			if ord < 0 || ord >= cnt {
				t.Fatalf("tree %d: split ordinal %d out of [0, %d)", tr, ord, cnt)
			}
			if _, dup := splits[ord]; dup {
				t.Fatalf("tree %d: ordinal %d visited twice", tr, ord)
			}
			nd := c.nodes[root+int32(ord)]
			if int(nd.feat) != f || math.Float64bits(nd.thresh) != math.Float64bits(th) {
				t.Fatalf("tree %d ord %d: visitor reports (%d, %v), node holds (%d, %v)", tr, ord, f, th, nd.feat, nd.thresh)
			}
			if nd.left == root+int32(ord) && nd.right == root+int32(ord) {
				t.Fatalf("tree %d ord %d: visitor reported a self-loop leaf as a split", tr, ord)
			}
			splits[ord] = nd
		})
		for _, row := range pool[:16] {
			_, mask := c.PredictTreePath(tr, row)
			// Strip the leaf: every remaining path bit must be a split.
			for ord := 0; ord < cnt && cnt <= 64; ord++ {
				if mask&(1<<uint(ord)) == 0 {
					continue
				}
				nd := c.nodes[root+int32(ord)]
				if nd.left == root+int32(ord) && nd.right == root+int32(ord) {
					continue // the walk's terminal leaf
				}
				if _, ok := splits[ord]; !ok {
					t.Fatalf("tree %d: path visits ordinal %d but TreeSplits never reported it", tr, ord)
				}
			}
		}
	}
}
