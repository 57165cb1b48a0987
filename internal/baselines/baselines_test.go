package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// synthData draws X uniform in [-2,2]^dim and y = f(x) + noise.
func synthData(rng *rand.Rand, n, dim int, f func([]float64) float64, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for j := range X[i] {
			X[i][j] = rng.Float64()*4 - 2
		}
		y[i] = f(X[i]) + rng.NormFloat64()*noise
	}
	return X, y
}

// predictAll applies a regressor to every row.
func predictAll(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

// r2 is the coefficient of determination, 1 − SSE/SST.
func r2(pred, y []float64) float64 {
	var mean, sse, sst float64
	for _, v := range y {
		mean += v / float64(len(y))
	}
	for i, v := range y {
		sse += (v - pred[i]) * (v - pred[i])
		sst += (v - mean) * (v - mean)
	}
	return 1 - sse/sst
}

// Depth returns the tree's height.
func (t *Tree) Depth() int { return splitDepth(t.root) }

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return walk(n.left) + walk(n.right)
	}
	return walk(t.root)
}

func stepFn(x []float64) float64 {
	if x[0] > 0 {
		return 10
	}
	return -10
}

func linearFn(x []float64) float64 { return 3*x[0] - 2*x[1] + x[2] }

func TestTreeLearnsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := synthData(rng, 500, 3, stepFn, 0.1)
	tr := NewTree(TreeConfig{MaxDepth: 3, MinLeaf: 5})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1, 0, 0}); math.Abs(got-10) > 1 {
		t.Fatalf("Predict(+) = %v", got)
	}
	if got := tr.Predict([]float64{-1, 0, 0}); math.Abs(got+10) > 1 {
		t.Fatalf("Predict(-) = %v", got)
	}
	if tr.Depth() < 1 {
		t.Fatal("tree did not split")
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synthData(rng, 1000, 4, linearFn, 0.2)
	tr := NewTree(TreeConfig{MaxDepth: 3, MinLeaf: 2})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 3 {
		t.Fatalf("depth %d > max 3", d)
	}
	if l := tr.NumLeaves(); l > 8 {
		t.Fatalf("%d leaves with depth 3", l)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := synthData(rng, 100, 3, linearFn, 0.1)
	tr := NewTree(TreeConfig{MaxDepth: 20, MinLeaf: 40})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// 100 samples with min leaf 40: at most one split.
	if tr.NumLeaves() > 2 {
		t.Fatalf("%d leaves violate MinLeaf", tr.NumLeaves())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tr := NewTree(TreeConfig{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{2.5}); got != 5 {
		t.Fatalf("constant predict = %v", got)
	}
}

func TestTreeErrorsOnBadInput(t *testing.T) {
	tr := NewTree(TreeConfig{})
	if err := tr.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := tr.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched fit accepted")
	}
}

func TestForestBeatsSingleTreeOnNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := synthData(rng, 800, 5, linearFn, 1.0)
	Xt, yt := synthData(rng, 300, 5, linearFn, 0)

	tr := NewTree(TreeConfig{MaxDepth: 8, MinLeaf: 2})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	fo := NewForest(ForestConfig{Trees: 40, Tree: TreeConfig{MaxDepth: 8, MinLeaf: 2, MaxFeatures: 4}, Seed: 1})
	if err := fo.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	maeTree := metrics.MAE(predictAll(tr, Xt), yt)
	maeForest := metrics.MAE(predictAll(fo, Xt), yt)
	if maeForest >= maeTree {
		t.Fatalf("forest MAE %v >= single tree %v", maeForest, maeTree)
	}
}

func TestForestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X, y := synthData(rng, 300, 3, linearFn, 0.5)
	run := func() []float64 {
		fo := NewForest(ForestConfig{Trees: 10, Seed: 9})
		if err := fo.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return predictAll(fo, X[:20])
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forest training not deterministic across runs")
		}
	}
}

func TestGBDTFitsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := synthData(rng, 1000, 3, linearFn, 0.1)
	Xt, yt := synthData(rng, 300, 3, linearFn, 0)
	g := NewGBDT(GBDTConfig{Rounds: 80, LearnRate: 0.1, Seed: 2})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := r2(predictAll(g, Xt), yt); got < 0.85 {
		t.Fatalf("GBDT R² = %v, want > 0.85", got)
	}
}

func TestGBDTImprovesWithRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := synthData(rng, 600, 3, linearFn, 0.1)
	Xt, yt := synthData(rng, 200, 3, linearFn, 0)
	few := NewGBDT(GBDTConfig{Rounds: 5, Seed: 3})
	many := NewGBDT(GBDTConfig{Rounds: 60, Seed: 3})
	if err := few.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := many.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if metrics.MAE(predictAll(many, Xt), yt) >= metrics.MAE(predictAll(few, Xt), yt) {
		t.Fatal("more boosting rounds did not help on train-like data")
	}
}

func TestGBDTSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := synthData(rng, 500, 3, linearFn, 0.3)
	g := NewGBDT(GBDTConfig{Rounds: 30, SubsampleFraction: 0.5, Seed: 4})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := r2(predictAll(g, X), y); got < 0.7 {
		t.Fatalf("stochastic GBDT R² = %v", got)
	}
}

func TestKNNExactNeighbors(t *testing.T) {
	// Four well-separated clusters; prediction at a cluster center must be
	// the cluster's value.
	X := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
	}
	y := []float64{1, 1, 1, 9, 9, 9}
	k := NewKNN(KNNConfig{K: 3})
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := k.Predict([]float64{0.05, 0.05}); got != 1 {
		t.Fatalf("Predict near cluster A = %v", got)
	}
	if got := k.Predict([]float64{10.05, 10.05}); got != 9 {
		t.Fatalf("Predict near cluster B = %v", got)
	}
}

// TestKNNMatchesBruteForce is the KD-tree differential test.
func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := synthData(rng, 400, 4, linearFn, 0.1)
	k := NewKNN(KNNConfig{K: 7})
	if err := k.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		query := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		got := k.Predict(query)
		// Brute force.
		type nd struct {
			d float64
			y float64
		}
		var all []nd
		for i, row := range X {
			all = append(all, nd{dist2(query, row), y[i]})
		}
		for i := range all {
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[i].d {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		var want float64
		for i := 0; i < 7; i++ {
			want += all[i].y
		}
		want /= 7
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("query %d: kd %v vs brute %v", q, got, want)
		}
	}
}

func TestKNNStandardizeMatters(t *testing.T) {
	// Feature 1 has huge scale but is pure noise; feature 0 carries all
	// signal. Standardization keeps feature 0 relevant.
	rng := rand.New(rand.NewSource(10))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.Float64()*2 - 1
		X[i] = []float64{x0, rng.Float64() * 1e6}
		y[i] = 100 * x0
	}
	std := NewKNN(KNNConfig{K: 5, Standardize: true})
	raw := NewKNN(KNNConfig{K: 5})
	if err := std.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := raw.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt := make([][]float64, 100)
	yt := make([]float64, 100)
	for i := range Xt {
		x0 := rng.Float64()*2 - 1
		Xt[i] = []float64{x0, rng.Float64() * 1e6}
		yt[i] = 100 * x0
	}
	if metrics.MAE(predictAll(std, Xt), yt) >= metrics.MAE(predictAll(raw, Xt), yt) {
		t.Fatal("standardization should help when scales differ")
	}
}

func TestKNNErrorsAndDefaults(t *testing.T) {
	k := NewKNN(KNNConfig{})
	if k.Cfg.K != 5 {
		t.Fatalf("default K = %d", k.Cfg.K)
	}
	if err := k.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if k.Predict([]float64{1}) != 0 {
		t.Fatal("unfitted predict should be 0")
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	X, y := synthData(rng, 5000, 10, linearFn, 0.5)
	k := NewKNN(KNNConfig{K: 10, Standardize: true})
	if err := k.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	q := X[100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Predict(q)
	}
}
