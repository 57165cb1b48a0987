package baselines

import (
	"math/rand"
	"testing"
)

// benchDims matches the acceptance workload: 10k rows over the model's 33
// features, a mildly nonlinear target.
const (
	benchRows  = 10000
	benchFeats = 33
)

func benchData(b *testing.B) ([][]float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(12))
	f := func(x []float64) float64 {
		v := 3*x[0] - 2*x[1] + x[2]*x[3]
		if x[4] > 0.5 {
			v += 5
		}
		return v
	}
	return synthData(rng, benchRows, benchFeats, f, 0.5)
}

// BenchmarkForestFit measures histogram split finding (shared binning,
// parent−sibling subtraction) at the acceptance size.
func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fo := NewForest(ForestConfig{Trees: 8, Tree: TreeConfig{MaxDepth: 8}, Seed: 1})
		if err := fo.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTFit is the boosting counterpart: sequential rounds over one
// shared binned matrix and reused histogram scratch.
func BenchmarkGBDTFit(b *testing.B) {
	X, y := benchData(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewGBDT(GBDTConfig{Rounds: 20, Tree: TreeConfig{MaxDepth: 4}, Seed: 2})
		if err := g.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
