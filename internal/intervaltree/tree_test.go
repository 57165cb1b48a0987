// Package intervaltree holds, in test files only, the paper's feature
// engineering structure (§III): an augmented balanced interval tree over
// every job's [eligible, start) pending and [start, end) running
// intervals, where "which jobs overlap instant t" gives the Table II
// partition-state features. The paper builds trees over chunks of 100 000
// jobs with a 10 000-job overlap and merges them; BuildChunked reproduces
// that construction. The dataset itself is the live-state engine replaying
// the trace (livestate.Build); the trees are the oracle it is checked
// against (replay_test.go).
package intervaltree

import "sort"

// Interval is a half-open interval [Lo, Hi) tagged with the index of the job
// it belongs to. Hi must be >= Lo; zero-length intervals never match a stab.
type Interval struct {
	Lo, Hi int64
	ID     int
}

// Contains reports whether t lies inside the half-open interval.
func (iv Interval) Contains(t int64) bool { return iv.Lo <= t && t < iv.Hi }

// node is a tree node augmented with the subtree's maximum Hi endpoint.
type node struct {
	iv          Interval
	maxHi       int64
	height      int
	left, right *node
}

// Tree is a balanced interval tree, built once from a slice (Build,
// BuildChunked, Merge). The zero value is an empty tree.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Size returns the number of stored intervals.
func (t *Tree) Size() int { return t.size }

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxHi(n *node) int64 {
	if n == nil {
		return -1 << 62
	}
	return n.maxHi
}

func (n *node) update() {
	n.height = 1 + max(height(n.left), height(n.right))
	n.maxHi = n.iv.Hi
	if l := maxHi(n.left); l > n.maxHi {
		n.maxHi = l
	}
	if r := maxHi(n.right); r > n.maxHi {
		n.maxHi = r
	}
}

// less orders intervals by (Lo, Hi, ID) so the tree shape is deterministic.
func less(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	if a.Hi != b.Hi {
		return a.Hi < b.Hi
	}
	return a.ID < b.ID
}

// StabVisit calls visit for each interval containing t, avoiding the
// allocation of a result slice.
func (t *Tree) StabVisit(at int64, visit func(Interval)) {
	stabVisit(t.root, at, visit)
}

func stabVisit(n *node, at int64, visit func(Interval)) {
	if n == nil || n.maxHi <= at {
		return
	}
	stabVisit(n.left, at, visit)
	if n.iv.Contains(at) {
		visit(n.iv)
	}
	if n.iv.Lo <= at {
		stabVisit(n.right, at, visit)
	}
}

// All appends every interval (in sorted order) to dst and returns it.
func (t *Tree) All(dst []Interval) []Interval {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		dst = append(dst, n.iv)
		walk(n.right)
	}
	walk(t.root)
	return dst
}

// Build constructs a balanced tree from a slice of intervals in O(n log n).
func Build(ivs []Interval) *Tree {
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	t := New()
	t.root = buildSorted(sorted)
	t.size = len(sorted)
	return t
}

// buildSorted builds a perfectly balanced subtree from sorted intervals.
func buildSorted(ivs []Interval) *node {
	if len(ivs) == 0 {
		return nil
	}
	mid := len(ivs) / 2
	n := &node{iv: ivs[mid]}
	n.left = buildSorted(ivs[:mid])
	n.right = buildSorted(ivs[mid+1:])
	n.update()
	return n
}

// BuildChunked reproduces the paper's construction: jobs are split into
// chunks of chunkSize with an overlap of `overlapN` jobs between consecutive
// chunks, one tree is built per chunk, and the trees are merged back
// together (deduplicating the overlap region). The paper used chunkSize
// 100 000 and overlap 10 000 to bound per-tree build cost. The merged result
// is semantically identical to Build(ivs).
func BuildChunked(ivs []Interval, chunkSize, overlapN int) *Tree {
	if chunkSize <= 0 {
		panic("intervaltree: chunkSize must be positive")
	}
	if overlapN < 0 || overlapN >= chunkSize {
		panic("intervaltree: overlap must be in [0, chunkSize)")
	}
	if len(ivs) <= chunkSize {
		return Build(ivs)
	}
	var chunks []*Tree
	step := chunkSize - overlapN
	for start := 0; start < len(ivs); start += step {
		end := start + chunkSize
		if end > len(ivs) {
			end = len(ivs)
		}
		chunks = append(chunks, Build(ivs[start:end]))
		if end == len(ivs) {
			break
		}
	}
	return Merge(chunks...)
}

// Merge combines trees into one, dropping duplicate (Lo, Hi, ID) entries
// that arise from chunk overlap.
func Merge(trees ...*Tree) *Tree {
	var all []Interval
	for _, t := range trees {
		all = t.All(all)
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	dedup := all[:0]
	for i, iv := range all {
		if i > 0 && iv == all[i-1] {
			continue
		}
		dedup = append(dedup, iv)
	}
	out := New()
	out.root = buildSorted(dedup)
	out.size = len(dedup)
	return out
}
