package xgb

// This file compiles a trained pointer-tree ensemble into a flat
// structure-of-arrays layout for batched, branch-light inference — the
// batched tree-inference layout in the spirit of the XGBoost paper's
// block-structured scoring. The compiled form is used on the hottest path
// of the repository, the SA argmax over the surrogate (candidate
// selection), and is bit-identical to the pointer-tree predictor by
// construction: same comparisons, same leaf values, same per-row summation
// order (base, then trees in training order).

import (
	"fmt"
	"sync"
)

// CompiledModel is a Model flattened into contiguous per-node arrays:
// feature index, threshold, left/right child, and leaf value, with tree t
// owning the index range [off[t], off[t+1]). Leaves are self-loops
// (left == right == own index), which lets every walk run a fixed number
// of steps (the tree's depth) with no leaf test in the inner loop: once a
// row reaches its leaf it keeps stepping in place. The traversal rule is
// exactly the pointer predictor's — go left iff x[feat] <= thresh, so a
// NaN feature always takes the right child — and the per-row score is
// base + Σ leaf values in tree order, making every prediction bit-identical
// to Model.Predict.
type CompiledModel struct {
	base   float64
	nfeat  int
	ntrees int

	off   []int32 // tree t's nodes occupy [off[t], off[t+1])
	steps []int32 // per-tree walk length: max root-to-leaf branch count

	nodes []cnode   // packed split records, indexed like value
	value []float64 // leaf weight (internal nodes: 0)

	fmask []uint64 // per-tree feature bitsets, maskWords words each
}

// cnode is the packed per-node record of the walk kernels. Keeping the
// threshold, feature and both children in one load unit matters: the walk
// step loads the whole record, then selects between two registers, which
// the compiler turns into a conditional move — no data-dependent branch
// (split directions are ~random, so such a branch mispredicts ~half the
// time) and a single bounds check per step instead of one per array.
// cnode must stay at four fields: the compiler only SSA-decomposes structs
// that small, and a fifth field spills the loaded record to the stack and
// turns the conditional moves back into branches (measured 4x slower).
type cnode struct {
	thresh float64 // split threshold (leaves: 0)
	feat   int32   // split feature (leaves: 0, inert under self-loop)
	left   int32   // child when x[feat] <= thresh (absolute index)
	right  int32   // child otherwise (absolute index)
}

// maskWords returns the per-tree bitset length in 64-bit words.
func (c *CompiledModel) maskWords() int { return (c.nfeat + 63) / 64 }

// Compile flattens the ensemble into the SoA layout. The model remains
// usable; the compiled form shares no state with it.
func (m *Model) Compile() *CompiledModel {
	return m.compileInto(&CompiledModel{})
}

// compiledArena recycles retired CompiledModels across compilations. A
// surrogate-driven tuning session recompiles its ensemble every round, and
// a serving fleet opens many sessions; reusing the node/value/mask arrays
// keeps the per-round cost at "fill the arrays" instead of "allocate and
// fault them in". Pool discipline is strict transfer of ownership: Release
// hands the arrays over, and nothing may touch them afterwards.
var compiledArena = sync.Pool{New: func() any { return &CompiledModel{} }}

// CompilePooled is Compile into a recycled arena slot. The caller owns the
// result until it passes it to (*CompiledModel).Release.
func (m *Model) CompilePooled() *CompiledModel {
	return m.compileInto(compiledArena.Get().(*CompiledModel))
}

// Release returns a compiled model's arrays to the arena for the next
// compilation to reuse. The caller must hold the only live reference: any
// read after Release races with the next CompilePooled.
func (c *CompiledModel) Release() {
	if c != nil {
		compiledArena.Put(c)
	}
}

// grown returns s resized to n, reusing its backing array when capacity
// allows. Contents are unspecified; compileInto overwrites (or zeroes)
// every element it reads.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// compileInto is Compile writing into c's (possibly recycled) arrays. It
// fully overwrites every field — the result is bit-identical whether c was
// zero-valued or held a previous ensemble, which is what makes arena reuse
// invisible to every golden stream hash.
func (m *Model) compileInto(c *CompiledModel) *CompiledModel {
	c.base, c.nfeat, c.ntrees = m.base, m.nfeat, len(m.trees)
	total := 0
	for i := range m.trees {
		total += len(m.trees[i].nodes)
	}
	c.off = grown(c.off, len(m.trees)+1)
	c.steps = grown(c.steps, len(m.trees))
	c.nodes = grown(c.nodes, total)
	c.value = grown(c.value, total)
	words := c.maskWords()
	c.fmask = grown(c.fmask, len(m.trees)*words)
	clear(c.fmask)

	base := int32(0)
	for ti := range m.trees {
		nodes := m.trees[ti].nodes
		c.off[ti] = base
		mask := c.fmask[ti*words : (ti+1)*words]
		for ni := range nodes {
			n := &nodes[ni]
			gi := base + int32(ni)
			if n.feature < 0 {
				c.nodes[gi] = cnode{left: gi, right: gi}
				c.value[gi] = n.value
				continue
			}
			c.nodes[gi] = cnode{
				thresh: n.threshold,
				feat:   int32(n.feature),
				left:   base + n.left,
				right:  base + n.right,
			}
			c.value[gi] = 0
			mask[n.feature>>6] |= 1 << (uint(n.feature) & 63)
		}
		c.steps[ti] = treeDepth(nodes)
		base += int32(len(nodes))
	}
	c.off[len(m.trees)] = base
	return c
}

// treeDepth returns the maximum number of branch steps from the root to any
// leaf (0 for a single-leaf tree), using an explicit stack so compilation
// cost does not depend on Go stack growth.
func treeDepth(nodes []treeNode) int32 {
	if len(nodes) == 0 {
		return 0
	}
	type frame struct{ node, depth int32 }
	stack := []frame{{0, 0}}
	max := int32(0)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &nodes[f.node]
		if n.feature < 0 {
			if f.depth > max {
				max = f.depth
			}
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return max
}

// Base returns the ensemble's base score (the first addend of every
// prediction).
func (c *CompiledModel) Base() float64 { return c.base }

// NumTrees returns the ensemble size.
func (c *CompiledModel) NumTrees() int { return c.ntrees }

// NumFeatures returns the feature dimensionality seen at training.
func (c *CompiledModel) NumFeatures() int { return c.nfeat }

// TreeUsesFeature reports whether tree t splits on feature f anywhere.
func (c *CompiledModel) TreeUsesFeature(t, f int) bool {
	words := c.maskWords()
	return c.fmask[t*words+f>>6]&(1<<(uint(f)&63)) != 0
}

// TreesTouching returns the trees whose splits read any feature in the
// half-open range [lo, hi), in ascending tree order. A tree absent from the
// result is guaranteed to predict the same leaf for two rows that differ
// only inside the range — the invariant incremental SA scoring relies on.
func (c *CompiledModel) TreesTouching(lo, hi int) []int {
	var out []int
	for t := 0; t < c.ntrees; t++ {
		for f := lo; f < hi; f++ {
			if c.TreeUsesFeature(t, f) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// TreeSplits calls visit for every internal (split) node of tree t with its
// ordinal (node index within the tree — the bit position PredictTreePath
// and PredictPairsPath report for it), feature, and threshold, in node
// order. Leaves are skipped. It exists so callers can reason about what a
// tree could ever compare — e.g. to prove two rows indistinguishable to
// the tree without walking it.
func (c *CompiledModel) TreeSplits(t int, visit func(ord, feat int, thresh float64)) {
	for i := c.off[t]; i < c.off[t+1]; i++ {
		nd := c.nodes[i]
		if nd.left == i {
			continue
		}
		visit(int(i-c.off[t]), int(nd.feat), nd.thresh)
	}
}

// TreeNodeCount returns the number of nodes (splits and leaves) of tree t.
// Trees with at most 64 nodes have exact PredictTreePath masks: every node
// owns a distinct bit. Larger trees fold ordinals mod 64, and callers that
// rely on bit-per-node exactness must treat them conservatively.
func (c *CompiledModel) TreeNodeCount(t int) int { return int(c.off[t+1] - c.off[t]) }

// Predict evaluates the compiled ensemble on one feature vector,
// bit-identical to Model.Predict.
func (c *CompiledModel) Predict(x []float64) float64 {
	if len(x) != c.nfeat {
		//lint:ignore panicpath model invariant: feature-width mismatch means the caller mixed models, not a runtime condition
		panic(fmt.Sprintf("xgb: compiled predict with %d features, model trained on %d", len(x), c.nfeat))
	}
	s := c.base
	for t := 0; t < c.ntrees; t++ {
		s += c.predictTreeIdx(t, x)
	}
	return s
}

// PredictTree evaluates tree t alone on one feature vector and returns its
// leaf value — the t-th addend of Predict, bit for bit.
func (c *CompiledModel) PredictTree(t int, x []float64) float64 {
	return c.predictTreeIdx(t, x)
}

// PredictTreePath evaluates tree t on one row and additionally returns the
// path mask of the walk: bit (ord mod 64) is set for every node the walk
// visited — split nodes and the final leaf alike — where ord is the node's
// index within the tree (the ordinal TreeSplits reports). For trees of at
// most 64 nodes every node owns a distinct bit, so the mask identifies the
// root-to-leaf path exactly; use TreeNodeCount to detect larger trees,
// whose folded masks admit collisions and must not be used for exact-path
// reasoning. The guarantee callers rely on: if every split on the masked
// path classifies a second row identically, the tree takes the identical
// path on it — same leaf value, same mask — with no walk needed.
func (c *CompiledModel) PredictTreePath(t int, x []float64) (float64, uint64) {
	i := c.off[t]
	root := i
	nodes := c.nodes
	var mask uint64
	for d := int32(0); d < c.steps[t]; d++ {
		nd := nodes[i]
		mask |= 1 << (uint(i-root) & 63)
		next := nd.right
		if x[nd.feat] <= nd.thresh {
			next = nd.left
		}
		i = next
	}
	return c.value[i], mask | 1<<(uint(i-root)&63)
}

// compiledTreeTile is the tile width of the lockstep pair walk — enough
// independent chains to cover load latency without spilling the per-item
// cursors out of registers/L1.
const compiledTreeTile = 16

// PackPair packs a (tree, row offset) work item for PredictPairsPath.
func PackPair(tree int32, rowOff int) int64 { return int64(rowOff)<<32 | int64(tree) }

// PairTree recovers the tree id of a PackPair item.
func PairTree(item int64) int32 { return int32(uint32(item)) }

// PredictPairsPath evaluates independent packed (tree, row) work items in
// lockstep: item j walks tree PairTree(items[j]) over the row starting at
// items[j]>>32 in the flat rows buffer, and vals[j]/masks[j] receive
// exactly what PredictTreePath would return for that pair, bit for bit.
// Items may mix arbitrary trees and rows — the incremental SA scorer
// batches every surviving walk of a whole proposal sweep into one call, so
// tile after tile of independent load-compare chains keeps the memory
// pipeline full regardless of how few trees any single proposal needs.
func (c *CompiledModel) PredictPairsPath(items []int64, rows []float64, vals []float64, masks []uint64) {
	for lo := 0; lo < len(items); lo += compiledTreeTile {
		hi := lo + compiledTreeTile
		if hi > len(items) {
			hi = len(items)
		}
		c.predictPairsTile(items[lo:hi], rows, vals[lo:hi], masks[lo:hi])
	}
}

func (c *CompiledModel) predictPairsTile(items []int64, rows []float64, vals []float64, masks []uint64) {
	nodes := c.nodes
	var idx, root, roff [compiledTreeTile]int32
	var msk [compiledTreeTile]uint64
	maxSteps := int32(0)
	for j, it := range items {
		t := int32(uint32(it))
		idx[j] = c.off[t]
		root[j] = c.off[t]
		roff[j] = int32(it >> 32)
		if s := c.steps[t]; s > maxSteps {
			maxSteps = s
		}
	}
	tidx := idx[:len(items)]
	// Items whose tree is shallower than maxSteps keep stepping in place at
	// their leaf (self-loop); the repeated OR of the leaf's own bit is
	// idempotent, and the final fold below adds it for paths that arrive at
	// the leaf exactly on the last step — so the mask never depends on how
	// items were tiled together.
	for d := int32(0); d < maxSteps; d++ {
		for j := range tidx {
			i := tidx[j]
			nd := nodes[i]
			msk[j] |= 1 << (uint(i-root[j]) & 63)
			next := nd.right
			if rows[roff[j]+nd.feat] <= nd.thresh {
				next = nd.left
			}
			tidx[j] = next
		}
	}
	for j := range tidx {
		i := tidx[j]
		vals[j] = c.value[i]
		masks[j] = msk[j] | 1<<(uint(i-root[j])&63)
	}
}

func (c *CompiledModel) predictTreeIdx(t int, x []float64) float64 {
	i := c.off[t]
	nodes := c.nodes
	for d := int32(0); d < c.steps[t]; d++ {
		nd := nodes[i]
		next := nd.right
		if x[nd.feat] <= nd.thresh {
			next = nd.left
		}
		i = next
	}
	return c.value[i]
}
