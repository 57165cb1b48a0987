package baselines

import "math"

// flatTreeNode is one node of the flattened serving tree: 24 bytes in a
// single contiguous array, so a walk touches one cache line every couple
// of levels instead of chasing 64-byte heap nodes, and the whole hot path
// needs one bounds check per level. Leaves are self-looping — left points
// at the node itself and threshold is +Inf (no finite or NaN v satisfies
// v > +Inf) — which lets the batch walk step every lane unconditionally
// for a fixed number of iterations with no "is this lane done" branch.
type flatTreeNode struct {
	feature   int32   // split feature, or flatLeaf
	left      int32   // left child; right child is left+1 (BFS adjacency); self for leaves
	threshold float64 // split value; +Inf for leaves
	value     float64 // leaf prediction; 0 for splits
}

// flatTree is the serving form of a trained regression tree — the pointer
// nodes flattened breadth-first into a contiguous node array. BFS order
// places every right child at left+1, so the child step compiles to a
// flag-to-increment instead of a mispredictable branch.
//
// The flat form is rebuilt from the pointer tree after every Fit and gob
// load; the pointer tree remains the single source of truth for training
// and serialization, and predictNode keeps serving-identical semantics for
// the bit-identity tests.
type flatTree struct {
	nodes []flatTreeNode
	// nan is the index of a sentinel leaf holding NaN, where the batch
	// walk parks lanes that consulted a poisoned feature.
	nan int32
	// depth is the number of split levels on the deepest path: the batch
	// walk's fixed iteration count (every lane is parked on a leaf after
	// that many steps).
	depth int
}

// flatLeaf marks a leaf in flatTreeNode.feature.
const flatLeaf = int32(-1)

// flattenTree lays out the subtree under root breadth-first and appends
// the NaN sentinel leaf. A non-leaf node missing either child (possible
// only for hand-built trees; the learners always produce two) degrades to
// a leaf carrying the node's value, matching the nil-guarded pointer walk.
func flattenTree(root *treeNode) *flatTree {
	if root == nil {
		return nil
	}
	queue := []*treeNode{root}
	ft := &flatTree{}
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		if n.leaf || n.left == nil || n.right == nil {
			ft.nodes = append(ft.nodes, flatTreeNode{
				feature: flatLeaf, left: int32(qi),
				threshold: math.Inf(1), value: n.value,
			})
			continue
		}
		ft.nodes = append(ft.nodes, flatTreeNode{
			feature:   int32(n.feature),
			left:      int32(len(queue)),
			threshold: n.threshold,
		})
		queue = append(queue, n.left, n.right)
	}
	ft.nan = int32(len(ft.nodes))
	ft.nodes = append(ft.nodes, flatTreeNode{
		feature: flatLeaf, left: ft.nan,
		threshold: math.Inf(1), value: math.NaN(),
	})
	ft.depth = splitDepth(root)
	return ft
}

// splitDepth counts split levels on the deepest root-to-leaf path.
func splitDepth(n *treeNode) int {
	if n == nil || n.leaf || n.left == nil || n.right == nil {
		return 0
	}
	l, r := splitDepth(n.left), splitDepth(n.right)
	if l < r {
		l = r
	}
	return l + 1
}

// predict walks the flat tree for one feature vector. A NaN in any
// consulted feature surfaces as a NaN prediction (the serving fallback
// keys off non-finite outputs); features the walk never consults cannot
// poison the result, mirroring predictNode.
func (ft *flatTree) predict(x []float64) float64 {
	nodes := ft.nodes
	i := int32(0)
	for {
		nd := nodes[i]
		f := nd.feature
		if f < 0 {
			return nd.value
		}
		v := x[f]
		if v != v {
			return math.NaN()
		}
		i = nd.left
		if v > nd.threshold {
			i++
		}
	}
}

// addMany accumulates out[i] += scale * predict(rows[i]) for every row,
// walking four rows through the tree in lockstep for exactly ft.depth
// steps. The lane step is branch-free on the hot path: the feature index
// is clamped to 0 for leaves (`f &^ (f >> 31)`), so a parked lane does a
// harmless re-read and self-loops via its +Inf threshold, and the
// left-or-right child select compiles to a flag increment rather than a
// data-dependent branch — split comparisons on real features are
// coin-flips a predictor cannot learn, and their mispredictions are what
// made the one-row walk slow. Four independent chains also keep four
// node loads in flight, overlapping the per-level latency a single walk
// serializes. A lane that consults a NaN feature parks on the NaN
// sentinel leaf (rare, predictable branch), reproducing the scalar
// walk's poisoned-input contract exactly.
func (ft *flatTree) addMany(rows [][]float64, scale float64, out []float64) {
	nodes := ft.nodes
	nan := ft.nan
	iters := ft.depth
	r := 0
	for ; r+4 <= len(rows); r += 4 {
		x0, x1, x2, x3 := rows[r], rows[r+1], rows[r+2], rows[r+3]
		var n0, n1, n2, n3 int32
		for d := 0; d < iters; d++ {
			nd0, nd1, nd2, nd3 := nodes[n0], nodes[n1], nodes[n2], nodes[n3]
			f0, f1, f2, f3 := nd0.feature, nd1.feature, nd2.feature, nd3.feature
			v0 := x0[f0&^(f0>>31)]
			v1 := x1[f1&^(f1>>31)]
			v2 := x2[f2&^(f2>>31)]
			v3 := x3[f3&^(f3>>31)]
			var i0, i1, i2, i3 int32
			if v0 > nd0.threshold {
				i0 = 1
			}
			if v1 > nd1.threshold {
				i1 = 1
			}
			if v2 > nd2.threshold {
				i2 = 1
			}
			if v3 > nd3.threshold {
				i3 = 1
			}
			n0, n1, n2, n3 = nd0.left+i0, nd1.left+i1, nd2.left+i2, nd3.left+i3
			if v0 != v0 && f0 >= 0 {
				n0 = nan
			}
			if v1 != v1 && f1 >= 0 {
				n1 = nan
			}
			if v2 != v2 && f2 >= 0 {
				n2 = nan
			}
			if v3 != v3 && f3 >= 0 {
				n3 = nan
			}
		}
		out[r] += scale * nodes[n0].value
		out[r+1] += scale * nodes[n1].value
		out[r+2] += scale * nodes[n2].value
		out[r+3] += scale * nodes[n3].value
	}
	for ; r < len(rows); r++ {
		out[r] += scale * ft.predict(rows[r])
	}
}

// rowHasNaN reports whether any feature in x is NaN.
func rowHasNaN(x []float64) bool {
	for _, v := range x {
		if v != v {
			return true
		}
	}
	return false
}

// allFlat reports whether every tree carries its flattened serving form.
func allFlat(trees []*Tree) bool {
	for _, t := range trees {
		if t.flat == nil {
			return false
		}
	}
	return len(trees) > 0
}

// flatEnsemble concatenates every tree's flat nodes into one contiguous
// array (child indices rebased, leaves still self-looping) with one root
// index per tree. Its walks run eight lanes like addMany, but the lanes
// are eight *trees* of the same row rather than eight rows of the same
// tree: every lane then shares a single feature-vector pointer and a
// single node-array base, so the whole lockstep step fits in registers —
// an eight-row variant spent its gains spilling row pointers and
// accumulators. Tree walks for one row are independent chains, so eight
// in flight still overlap the per-level load latency, and the shape makes
// the one-row Predict — the serving fallback's actual call shape — fast
// too, not just batches.
//
// Ensemble leaves differ from per-tree flat leaves in one way: feature is
// rewritten from flatLeaf to 0, so the walk loads x[feature] with no
// sign-clamp on the critical chain. The dummy x[0] read is harmless — the
// walks here require NaN-free rows, and the +Inf threshold self-loop
// parks the lane regardless of the value read. Leaves are recognized
// structurally instead: a node whose left index is itself (BFS always
// places real children strictly after their parent).
// ensNode is the ensemble's 16-byte walk node: threshold plus packed
// feature/left, two nodes per cache line. Leaf values live in the
// parallel values array, which the walk only touches once per tree at the
// end — keeping them out of the per-level working set.
type ensNode struct {
	feature   int32
	left      int32
	threshold float64
}

type flatEnsemble struct {
	nodes  []ensNode
	values []float64
	roots  []int32
	// iters[g] is the max split depth over tree group [8g, 8g+8): the
	// fixed lockstep iteration count for that lane group.
	iters []int32
}

// newFlatEnsemble builds the concatenated form, or returns nil if any
// tree lacks a flat form (nil root).
func newFlatEnsemble(trees []*Tree) *flatEnsemble {
	if !allFlat(trees) {
		return nil
	}
	fe := &flatEnsemble{}
	for _, t := range trees {
		off := int32(len(fe.nodes))
		fe.roots = append(fe.roots, off)
		for _, nd := range t.flat.nodes {
			f := nd.feature
			if f < 0 {
				f = 0
			}
			fe.nodes = append(fe.nodes, ensNode{feature: f, left: nd.left + off, threshold: nd.threshold})
			fe.values = append(fe.values, nd.value)
		}
	}
	for g := 0; g < len(trees); g += 8 {
		end := g + 8
		if end > len(trees) {
			end = len(trees)
		}
		m := 0
		for _, t := range trees[g:end] {
			if t.flat.depth > m {
				m = t.flat.depth
			}
		}
		fe.iters = append(fe.iters, int32(m))
	}
	return fe
}

// addRow returns acc + scale*tree0(x) + scale*tree1(x) + ... in exact
// tree order (bit-identical to the scalar Predict chain). x must be
// NaN-free — there is no per-level poisoned-feature guard here; callers
// route rows containing NaN through the per-tree scalar walk instead.
func (fe *flatEnsemble) addRow(x []float64, scale float64, acc float64) float64 {
	nodes := fe.nodes
	values := fe.values
	roots := fe.roots
	t := 0
	for ; t+8 <= len(roots); t += 8 {
		n0, n1, n2, n3 := roots[t], roots[t+1], roots[t+2], roots[t+3]
		n4, n5, n6, n7 := roots[t+4], roots[t+5], roots[t+6], roots[t+7]
		iters := int(fe.iters[t>>3])
		for d := 0; d < iters; d++ {
			nd0, nd1, nd2, nd3 := nodes[n0], nodes[n1], nodes[n2], nodes[n3]
			nd4, nd5, nd6, nd7 := nodes[n4], nodes[n5], nodes[n6], nodes[n7]
			v0 := x[nd0.feature]
			v1 := x[nd1.feature]
			v2 := x[nd2.feature]
			v3 := x[nd3.feature]
			v4 := x[nd4.feature]
			v5 := x[nd5.feature]
			v6 := x[nd6.feature]
			v7 := x[nd7.feature]
			var i0, i1, i2, i3, i4, i5, i6, i7 int32
			if v0 > nd0.threshold {
				i0 = 1
			}
			if v1 > nd1.threshold {
				i1 = 1
			}
			if v2 > nd2.threshold {
				i2 = 1
			}
			if v3 > nd3.threshold {
				i3 = 1
			}
			if v4 > nd4.threshold {
				i4 = 1
			}
			if v5 > nd5.threshold {
				i5 = 1
			}
			if v6 > nd6.threshold {
				i6 = 1
			}
			if v7 > nd7.threshold {
				i7 = 1
			}
			n0, n1, n2, n3 = nd0.left+i0, nd1.left+i1, nd2.left+i2, nd3.left+i3
			n4, n5, n6, n7 = nd4.left+i4, nd5.left+i5, nd6.left+i6, nd7.left+i7
		}
		acc += scale * values[n0]
		acc += scale * values[n1]
		acc += scale * values[n2]
		acc += scale * values[n3]
		acc += scale * values[n4]
		acc += scale * values[n5]
		acc += scale * values[n6]
		acc += scale * values[n7]
	}
	for ; t < len(roots); t++ {
		acc += scale * values[walkLeaf(nodes, roots[t], x)]
	}
	return acc
}

// walkLeaf walks a single tree of the concatenated array for one NaN-free
// row, returning the leaf's node index (leaves are self-loops, detected
// by left == index).
func walkLeaf(nodes []ensNode, n int32, x []float64) int32 {
	for {
		nd := nodes[n]
		if nd.left == n {
			return n
		}
		v := x[nd.feature]
		n = nd.left
		if v > nd.threshold {
			n++
		}
	}
}
