package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/slurmsim"
	"repro/internal/workload"
)

// TestBinnedRoundtrip: every raw value must land left of a split exactly
// when its bin does, i.e. bin(v) <= b  <=>  v <= edges[b]. This is the
// invariant that lets histogram-trained trees keep float thresholds.
func TestBinnedRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 3000)
	for i := range X {
		// Mix of continuous, heavy-tailed, and low-cardinality columns.
		X[i] = []float64{
			rng.NormFloat64(),
			math.Exp(rng.NormFloat64() * 3),
			float64(rng.Intn(4)),
		}
	}
	bm := newBinned(X)
	for f := 0; f < bm.cols; f++ {
		edges := bm.edges[f]
		for b := 1; b < len(edges); b++ {
			if edges[b] <= edges[b-1] {
				t.Fatalf("feature %d: edges not strictly increasing at %d", f, b)
			}
		}
		if len(edges)+1 > maxBins {
			t.Fatalf("feature %d: %d bins exceeds cap", f, len(edges)+1)
		}
		col := bm.col(f)
		for i, row := range X {
			v, bin := row[f], int(col[i])
			for b := range edges {
				if (bin <= b) != (v <= edges[b]) {
					t.Fatalf("feature %d row %d: v=%v bin=%d disagrees with edge[%d]=%v",
						f, i, v, bin, b, edges[b])
				}
			}
		}
	}
}

// TestHistogramSubtractionConsistent: a parent histogram minus a scanned
// child must equal the sibling's directly scanned histogram.
func TestHistogramSubtractionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synthData(rng, 500, 5, linearFn, 0.3)
	sc := newHistScratch(newBinned(X), y, 1)
	all := make([]int, len(X))
	for i := range all {
		all[i] = i
	}
	parent := sc.acquire()
	sc.accumulate(parent, all)
	left, right := all[:170], all[170:]
	lh := sc.acquire()
	sc.accumulate(lh, left)
	sc.subtractInto(parent, lh) // parent becomes right's histogram
	want := sc.acquire()
	sc.accumulate(want, right)
	for i := range want.count {
		if parent.count[i] != want.count[i] {
			t.Fatalf("count[%d]: subtraction %d vs direct %d", i, parent.count[i], want.count[i])
		}
		if math.Abs(parent.sum[i]-want.sum[i]) > 1e-9 {
			t.Fatalf("sum[%d]: subtraction %v vs direct %v", i, parent.sum[i], want.sum[i])
		}
	}
}

// workloadMatrix synthesizes an Anvil-shaped job stream and exposes it as a
// plain regression problem: request-time features against log runtime (the
// same shape as the runtime predictor the pipeline trains on every refit).
func workloadMatrix(t testing.TB, n int) ([][]float64, []float64) {
	t.Helper()
	cluster := slurmsim.AnvilLike(1)
	specs, err := workload.Generate(workload.DefaultConfig(n, 77), &cluster)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]int{}
	for i, p := range cluster.Partitions {
		parts[p.Name] = i
	}
	X := make([][]float64, len(specs))
	y := make([]float64, len(specs))
	for i, s := range specs {
		interactive := 0.0
		if s.Interactive {
			interactive = 1
		}
		X[i] = []float64{
			float64(s.ReqCPUs),
			s.ReqMemGB,
			float64(s.ReqNodes),
			float64(s.ReqGPUs),
			float64(s.TimeLimit),
			float64(s.QOS),
			interactive,
			float64(parts[s.Partition]),
			float64(s.User % 97),
			float64(s.Submit % 86400),
		}
		y[i] = math.Log1p(float64(s.Runtime))
	}
	return X, y
}

// TestHistogramMatchesExactQuality: on the workload generator's job stream
// the deleted exact-split learner scored 0.8788 (GBDT) and 1.1975 (forest)
// held-out MAE in log-seconds; the histogram learner scored 0.6590 and
// 0.6809 on the same split, and is held to that. Training is
// deterministic, so the bounds leave only ~5% for a deliberate change.
func TestHistogramMatchesExactQuality(t *testing.T) {
	X, y := workloadMatrix(t, 6000)
	cut := len(X) * 4 / 5
	trainX, trainY := X[:cut], y[:cut]
	testX, testY := X[cut:], y[cut:]

	check := func(name string, r Regressor, bound float64) {
		t.Helper()
		if err := r.Fit(trainX, trainY); err != nil {
			t.Fatal(err)
		}
		mae := metrics.MAE(predictAll(r, testX), testY)
		if mae > bound {
			t.Errorf("%s: held-out MAE %.4f, want <= %.2f", name, mae, bound)
		}
		t.Logf("%s: held-out MAE %.4f", name, mae)
	}
	check("gbdt", NewGBDT(GBDTConfig{Rounds: 60, Seed: 3}), 0.69)
	check("forest", NewForest(ForestConfig{Trees: 30, Seed: 4}), 0.72)
}

// TestHistogramLearnsStep: a depth-3 tree recovers a step function from
// binned features.
func TestHistogramLearnsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
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
}

// TestGBDTWorkerInvariance: feature-parallel split search must not change
// the trained model — same seeds, different worker counts, identical
// predictions.
func TestGBDTWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, y := synthData(rng, 2500, 8, linearFn, 0.4)
	fit := func(workers int) []float64 {
		g := NewGBDT(GBDTConfig{Rounds: 10, Seed: 7,
			Tree: TreeConfig{MaxFeatures: 4, Workers: workers}})
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return predictAll(g, X[:50])
	}
	a, b := fit(1), fit(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs across worker counts: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHistogramSerializationRoundtrip: histogram-trained ensembles must
// survive the gob roundtrip bit-for-bit (thresholds are plain floats).
func TestHistogramSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := synthData(rng, 800, 6, linearFn, 0.3)
	g := NewGBDT(GBDTConfig{Rounds: 15, Seed: 9})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back GBDT
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if a, b := g.Predict(X[i]), back.Predict(X[i]); a != b {
			t.Fatalf("row %d: %v != %v after roundtrip", i, a, b)
		}
	}
}
