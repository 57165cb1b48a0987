package main

import (
	"fmt"
	"strconv"
	"strings"

	trout "repro"
	"repro/internal/core"
	"repro/internal/hyperopt"
	"repro/internal/nn"
	"repro/internal/tscv"
)

// TuneConfig controls the hyperparameter search (§III: the paper tunes
// learning rate, epoch count, layer count/sizes, dropout and activation
// with Optuna; this uses random search with successive-halving pruning over
// the same space).
type TuneConfig struct {
	Trials int // 0 = 20, hyperopt.Search's default
	Seed   int64
}

const (
	// tuneValFraction is the most-recent slice trials are scored on.
	tuneValFraction = 0.2
	// tuneMinEpochs and tuneMaxEpochs are the halving budget rungs.
	tuneMinEpochs, tuneMaxEpochs = 5, 40
)

// TuneResult is the outcome of a search.
type TuneResult struct {
	Best     trout.ModelConfig
	BestMAPE float64
	Trials   int
	Pruned   int
}

// TuneRegressor searches the paper's §III hyperparameter space for the
// regression head and returns the base config with the winning regressor
// settings applied. Scoring is holdout MAPE on the most recent slice under
// the same time-ordered discipline as training.
func TuneRegressor(ds *trout.Dataset, base trout.ModelConfig, cfg TuneConfig) (TuneResult, error) {
	fold, err := tscv.HoldoutRecent(ds.Len(), tuneValFraction)
	if err != nil {
		return TuneResult{}, err
	}

	space := []hyperopt.Param{
		hyperopt.LogUniform("lr", 1e-4, 1e-2),
		hyperopt.IntRange("layers", 2, 4),
		hyperopt.IntRange("width", 32, 160),
		hyperopt.Uniform("dropout", 0, 0.4),
		hyperopt.Categorical("act", string(nn.ELU), string(nn.ReLU), string(nn.Tanh)),
	}

	objective := func(t *hyperopt.Trial, budget int) float64 {
		c := base
		c.Regressor.LearnRate = t.Float("lr")
		c.Regressor.Dropout = t.Float("dropout")
		c.Regressor.Activation = nn.ActivationKind(t.Cat("act"))
		c.Regressor.Epochs = budget
		c.Regressor.Hidden = pyramid(t.Int("width"), t.Int("layers"))
		// The classifier is out of scope for this search; keep it cheap.
		c.Classifier.Epochs = 3
		c.Seed = cfg.Seed + int64(t.ID)
		m, err := core.Train(ds, fold.Train, c)
		if err != nil {
			return 1e12 // infeasible configuration loses
		}
		return core.EvaluateRegression(m, ds, fold.Test).MAPE
	}

	res, err := hyperopt.Search(hyperopt.Config{
		Trials: cfg.Trials, Seed: cfg.Seed,
		Halving: true, MinBudget: tuneMinEpochs, MaxBudget: tuneMaxEpochs, Eta: 2,
	}, space, objective)
	if err != nil {
		return TuneResult{}, err
	}

	best := base
	best.Regressor.LearnRate = res.Best.Float("lr")
	best.Regressor.Dropout = res.Best.Float("dropout")
	best.Regressor.Activation = nn.ActivationKind(res.Best.Cat("act"))
	best.Regressor.Hidden = pyramid(res.Best.Int("width"), res.Best.Int("layers"))
	best.Regressor.Epochs = tuneMaxEpochs

	pruned := 0
	for _, t := range res.Trials {
		if t.Pruned {
			pruned++
		}
	}
	return TuneResult{Best: best, BestMAPE: res.Best.Score, Trials: len(res.Trials), Pruned: pruned}, nil
}

// pyramid builds a tapering hidden-layer stack: width, width/2, width/4, ...
func pyramid(width, layers int) []int {
	out := make([]int, layers)
	for i := range out {
		w := width >> i
		if w < 8 {
			w = 8
		}
		out[i] = w
	}
	return out
}

// DescribeConfig renders a model config compactly (for tuning reports).
func DescribeConfig(c trout.ModelConfig) string {
	var hidden []string
	for _, h := range c.Regressor.Hidden {
		hidden = append(hidden, strconv.Itoa(h))
	}
	return fmt.Sprintf("regressor: hidden=[%s] act=%s lr=%.2g dropout=%.2f epochs=%d",
		strings.Join(hidden, ","), c.Regressor.Activation,
		c.Regressor.LearnRate, c.Regressor.Dropout, c.Regressor.Epochs)
}
