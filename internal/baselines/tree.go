// Package baselines implements the comparison models from the paper's
// evaluation (§IV): a gradient-boosted regression-tree model (the XGBoost
// stand-in), a random-forest regressor, and a k-nearest-neighbors regressor
// over a KD-tree — plus the CART regression tree they share and the
// random-forest runtime predictor whose output feeds back into the Table II
// features. Everything trains on the same matrices the neural network sees.
package baselines

import (
	"fmt"
	"math"
	"math/rand"
)

// Regressor is the common fit/predict interface all baselines implement.
type Regressor interface {
	// Fit trains on rows of X (samples) against y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the model output for one feature vector.
	Predict(x []float64) float64
}

// TreeConfig controls CART construction.
type TreeConfig struct {
	MaxDepth    int // 0 means 10
	MinLeaf     int // minimum samples per leaf; 0 means 5
	MaxFeatures int // features considered per split; 0 means all
	// Workers enables feature-parallel split search inside a single tree;
	// 0 or 1 is serial. Forests keep this at 1 (they parallelize across
	// trees); GBDT sets it because boosting rounds are sequential.
	Workers int
	Seed    int64
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
}

// treeNode is one node of a regression tree.
type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	value       float64
	leaf        bool
}

// Tree is a CART regression tree minimizing within-node variance.
type Tree struct {
	Cfg  TreeConfig
	root *treeNode
	dim  int
	// flat is the SoA serving form, rebuilt from root after every fit and
	// gob load (see flat.go). Predict walks it; the pointer tree stays the
	// source of truth for training and serialization.
	flat *flatTree
}

// NewTree returns an untrained tree.
func NewTree(cfg TreeConfig) *Tree {
	cfg.defaults()
	return &Tree{Cfg: cfg}
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("baselines: tree fit with %d samples, %d targets", len(X), len(y))
	}
	t.dim = len(X[0])
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(t.Cfg.Seed))
	sc := newHistScratch(newBinned(X), y, t.Cfg.Workers)
	t.root = t.fitBinned(sc, idx, rng)
	t.flat = flattenTree(t.root)
	return nil
}

// fitShared trains on pre-binned features through a caller-owned scratch —
// the path Forest and GBDT use so quantization happens once per ensemble
// (per Fit) rather than once per tree. idx is copied; the scratch's target
// slice must already hold this tree's y.
func (t *Tree) fitShared(sc *histScratch, idx []int, rng *rand.Rand) error {
	if len(idx) == 0 {
		return fmt.Errorf("baselines: tree fit with 0 indices")
	}
	t.dim = sc.bm.cols
	own := append([]int(nil), idx...)
	t.root = t.fitBinned(sc, own, rng)
	t.flat = flattenTree(t.root)
	return nil
}

// Predict implements Regressor, serving from the flattened form (see
// flat.go). A NaN in any feature the walk consults yields a NaN
// prediction rather than silently routing right — poisoned inputs must
// surface so the serving fallback can catch them.
func (t *Tree) Predict(x []float64) float64 {
	if t.flat != nil {
		return t.flat.predict(x)
	}
	return t.predictNode(x)
}

// predictNode is the pointer-chasing reference walk, kept for the
// flat-vs-pointer bit-identity tests. Semantics match flatTree.predict
// exactly, including NaN propagation.
func (t *Tree) predictNode(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		v := x[n.feature]
		if v != v {
			return math.NaN()
		}
		if v <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}
