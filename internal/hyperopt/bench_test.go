package hyperopt

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/baselines"
)

// trainLikeObjective imitates a small training run: per-trial seeded noise
// plus budget-proportional compute, so the serial/parallel comparison below
// reflects search orchestration, not objective quirks.
func trainLikeObjective(tr *Trial, budget int) float64 {
	rng := rand.New(rand.NewSource(int64(tr.ID)))
	s := 0.0
	for i := 0; i < budget*20000; i++ {
		s += rng.Float64()
	}
	d := tr.Float("x") - 3
	return d*d + s*1e-12
}

// BenchmarkHyperoptGBDTSearch runs successive halving over real GBDT fits
// on a synthetic regression task — the shape of a production tree-baseline
// tune, where trial cost is dominated by histogram Fit throughput. The
// budget scales boosting rounds, mirroring how the halving scheduler spends
// cheap low-fidelity trials before promoting.
func BenchmarkHyperoptGBDTSearch(b *testing.B) {
	const rows, feats = 4000, 12
	rng := rand.New(rand.NewSource(33))
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = 2*row[0] - row[1]*row[2] + 0.3*rng.NormFloat64()
	}
	space := []Param{
		IntRange("depth", 2, 6),
		LogUniform("lr", 1e-2, 0.5),
	}
	objective := func(tr *Trial, budget int) float64 {
		g := baselines.NewGBDT(baselines.GBDTConfig{
			Rounds:    5 * budget,
			LearnRate: tr.Float("lr"),
			Tree:      baselines.TreeConfig{MaxDepth: tr.Int("depth")},
			Seed:      int64(tr.ID),
		})
		if err := g.Fit(X, y); err != nil {
			b.Fatal(err)
		}
		var sae float64
		for i := 0; i < 500; i++ {
			d := g.Predict(X[i]) - y[i]
			if d < 0 {
				d = -d
			}
			sae += d
		}
		return sae / 500
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search(Config{
			Trials: 9, Seed: 35, Workers: 1,
			Halving: true, MinBudget: 1, MaxBudget: 9, Eta: 3,
		}, space, objective)
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no best trial")
		}
	}
}

// BenchmarkHyperoptSearch measures the successive-halving search loop,
// serial vs worker-pool, on a training-shaped objective.
func BenchmarkHyperoptSearch(b *testing.B) {
	space := []Param{
		Uniform("x", -10, 10),
		LogUniform("lr", 1e-5, 1e-1),
		IntRange("layers", 1, 4),
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Search(Config{
					Trials: 27, Seed: 21, Workers: workers,
					Halving: true, MinBudget: 1, MaxBudget: 9, Eta: 3,
				}, space, trainLikeObjective)
				if err != nil {
					b.Fatal(err)
				}
				if res.Best == nil {
					b.Fatal("no best trial")
				}
			}
		})
	}
}
