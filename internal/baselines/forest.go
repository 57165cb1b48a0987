package baselines

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// Compile-time interface checks for the ensemble learners.
var (
	_ Regressor = (*Tree)(nil)
	_ Regressor = (*Forest)(nil)
	_ Regressor = (*GBDT)(nil)
)

// ForestConfig controls random-forest construction.
type ForestConfig struct {
	Trees int // 0 means 100
	Tree  TreeConfig
	// SampleFraction is the bootstrap size relative to the dataset;
	// 0 means 1.0 (classic bootstrap with replacement).
	SampleFraction float64
	// Workers bounds parallel tree construction; 0 means GOMAXPROCS.
	Workers int
	Seed    int64
}

func (c *ForestConfig) defaults(dim int) {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.SampleFraction <= 0 {
		c.SampleFraction = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Tree.defaults()
	if c.Tree.MaxFeatures <= 0 {
		// Regression default: d/3, at least 1.
		c.Tree.MaxFeatures = dim / 3
		if c.Tree.MaxFeatures < 1 {
			c.Tree.MaxFeatures = 1
		}
	}
}

// Forest is a bagged ensemble of regression trees, built in parallel — the
// paper uses it both as a queue-time baseline and as the runtime predictor
// whose output becomes a feature.
type Forest struct {
	Cfg   ForestConfig
	trees []*Tree
	// ens is the concatenated flat serving form of all trees, rebuilt
	// after every Fit and gob load (see flat.go).
	ens *flatEnsemble
}

// NewForest returns an untrained forest.
func NewForest(cfg ForestConfig) *Forest { return &Forest{Cfg: cfg} }

// Fit implements Regressor. Trees train concurrently on bootstrap samples;
// per-tree RNGs are seeded deterministically so results are reproducible
// regardless of worker interleaving. The feature matrix is quantized once
// here and shared read-only by every tree, so the per-feature sort cost is
// paid once per forest; each worker keeps its own histogram scratch.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("baselines: forest fit with %d samples, %d targets", len(X), len(y))
	}
	f.Cfg.defaults(len(X[0]))
	n := len(X)
	sampleN := int(f.Cfg.SampleFraction * float64(n))
	if sampleN < 1 {
		sampleN = 1
	}
	bm := newBinned(X, f.Cfg.Tree.Bins)
	f.trees = make([]*Tree, f.Cfg.Trees)
	sem := make(chan struct{}, f.Cfg.Workers)
	var wg sync.WaitGroup
	errs := make([]error, f.Cfg.Trees)
	// One histogram scratch per worker slot, reused across the trees that
	// slot trains (the free-listed node histograms are the big buffers).
	scratch := make(chan *histScratch, f.Cfg.Workers)
	for w := 0; w < f.Cfg.Workers; w++ {
		scratch <- newHistScratch(bm, y, 1)
	}
	for ti := 0; ti < f.Cfg.Trees; ti++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(f.Cfg.Seed + int64(ti)*7919))
			idx := make([]int, sampleN)
			for k := range idx {
				idx[k] = rng.Intn(n)
			}
			tcfg := f.Cfg.Tree
			tcfg.Seed = f.Cfg.Seed + int64(ti)
			tcfg.Workers = 1 // trees already run in parallel
			tree := NewTree(tcfg)
			sc := <-scratch
			errs[ti] = tree.fitShared(sc, idx, rng)
			scratch <- sc
			f.trees[ti] = tree
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.ens = newFlatEnsemble(f.trees)
	return nil
}

// Predict implements Regressor: the mean of tree predictions. NaN-free
// rows take the eight-lane ensemble walk; rows with a NaN go through the
// per-tree scalar walk, which implements the consulted-feature NaN
// contract. Both produce bit-identical results.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	if f.ens != nil && !rowHasNaN(x) {
		return f.ens.addRow(x, 1, 0) / float64(len(f.trees))
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// GBDTConfig controls gradient-boosted tree construction — the stand-in for
// the paper's XGBoost baseline.
type GBDTConfig struct {
	Rounds    int     // boosting rounds; 0 means 100
	LearnRate float64 // shrinkage; 0 means 0.1
	Tree      TreeConfig
	// SubsampleFraction of rows per round (stochastic gradient boosting);
	// 0 means 1.0.
	SubsampleFraction float64
	Seed              int64
}

func (c *GBDTConfig) defaults() {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.1
	}
	if c.SubsampleFraction <= 0 {
		c.SubsampleFraction = 1
	}
	if c.Tree.MaxDepth <= 0 {
		c.Tree.MaxDepth = 4
	}
	c.Tree.defaults()
}

// GBDT is gradient boosting with squared loss over shallow CART trees.
type GBDT struct {
	Cfg   GBDTConfig
	base  float64
	trees []*Tree
	// ens is the concatenated flat serving form of all trees, rebuilt
	// after every Fit and gob load (see flat.go).
	ens *flatEnsemble
}

// NewGBDT returns an untrained booster.
func NewGBDT(cfg GBDTConfig) *GBDT { return &GBDT{Cfg: cfg} }

// Fit implements Regressor. Boosting rounds are inherently sequential
// (each tree fits the previous ensemble's residuals), so throughput comes
// from inside a round: features are quantized once up front and every
// round's tree trains on the shared bins through one reused scratch, split
// search fans out across features, and the per-row prediction update after
// each tree runs row-parallel. Results are independent of worker count.
func (g *GBDT) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("baselines: gbdt fit with %d samples, %d targets", len(X), len(y))
	}
	g.Cfg.defaults()
	n := len(X)
	var s float64
	for _, v := range y {
		s += v
	}
	g.base = s / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = g.base
	}
	resid := make([]float64, n)
	rng := rand.New(rand.NewSource(g.Cfg.Seed))
	g.trees = g.trees[:0]
	sampleN := int(g.Cfg.SubsampleFraction * float64(n))
	if sampleN < 1 {
		sampleN = 1
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	workers := g.Cfg.Tree.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := newHistScratch(newBinned(X, g.Cfg.Tree.Bins), resid, workers)
	for round := 0; round < g.Cfg.Rounds; round++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		idx := all
		if sampleN < n {
			rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
			idx = all[:sampleN]
		}
		tcfg := g.Cfg.Tree
		tcfg.Seed = g.Cfg.Seed + int64(round)
		tcfg.Workers = sc.workers
		tree := NewTree(tcfg)
		if err := tree.fitShared(sc, idx, rng); err != nil {
			return err
		}
		g.trees = append(g.trees, tree)
		parallelPredictAdd(pred, X, tree, g.Cfg.LearnRate)
	}
	g.ens = newFlatEnsemble(g.trees)
	return nil
}

// parallelPredictAdd computes pred[i] += rate*tree.Predict(X[i]) across all
// rows, fanning out over GOMAXPROCS when the trace is large enough for the
// goroutine cost to vanish. Rows are independent, so the result is
// identical at any worker count.
func parallelPredictAdd(pred []float64, X [][]float64, tree *Tree, rate float64) {
	workers := runtime.GOMAXPROCS(0)
	const minRowsPerWorker = 2048
	if maxW := len(pred) / minRowsPerWorker; workers > maxW {
		workers = maxW
	}
	if workers < 2 {
		if tree.flat != nil {
			tree.flat.addMany(X, rate, pred)
		} else {
			for i := range pred {
				pred[i] += rate * tree.Predict(X[i])
			}
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(pred) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pred) {
			hi = len(pred)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if tree.flat != nil {
				tree.flat.addMany(X[lo:hi], rate, pred[lo:hi])
				return
			}
			for i := lo; i < hi; i++ {
				pred[i] += rate * tree.Predict(X[i])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Predict implements Regressor. NaN-free rows take the eight-lane
// ensemble walk; rows with a NaN go through the per-tree scalar walk,
// which implements the consulted-feature NaN contract. Both produce
// bit-identical results.
func (g *GBDT) Predict(x []float64) float64 {
	if g.ens != nil && !rowHasNaN(x) {
		return g.ens.addRow(x, g.Cfg.LearnRate, g.base)
	}
	out := g.base
	for _, t := range g.trees {
		out += g.Cfg.LearnRate * t.Predict(x)
	}
	return out
}
