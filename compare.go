package trout

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/metrics"
	"repro/internal/scaling"
	"repro/internal/tscv"
)

// ModelName identifies a regression model in comparisons.
type ModelName string

// The four models the paper compares (Figs 6–9).
const (
	ModelNeuralNet    ModelName = "NeuralNet"
	ModelGBDT         ModelName = "XGBoost-like GBDT"
	ModelRandomForest ModelName = "RandomForest"
	ModelKNN          ModelName = "kNN"
)

// ModelScore is one model's performance on one fold.
type ModelScore struct {
	Model     ModelName
	Fold      int
	N         int
	MAPE      float64 // average percent error (Figs 6/7)
	Within100 float64 // fraction within 100 % error (Figs 8/9)
	Pearson   float64
}

// CompareConfig sizes the baseline models.
type CompareConfig struct {
	GBDTRounds  int // 0 = 100
	ForestTrees int // 0 = 100
	KNNK        int // 0 = 10
	Seed        int64
}

func (c *CompareConfig) defaults() {
	if c.GBDTRounds <= 0 {
		c.GBDTRounds = 100
	}
	if c.ForestTrees <= 0 {
		c.ForestTrees = 100
	}
	if c.KNNK <= 0 {
		c.KNNK = 10
	}
}

// CompareFold trains the paper's four regression models on one fold's
// long-job subset (identical features, log-scaled, log targets) and scores
// them on the fold's truly-long test jobs — the experiment behind
// Figs 6–9. fold is a 1-based index into the same splits CrossValidate uses.
func CompareFold(ds *Dataset, nnCfg ModelConfig, cmp CompareConfig, folds int, testFraction float64, fold int) ([]ModelScore, error) {
	cmp.defaults()
	splits, err := tscv.Split(ds.Len(), folds, testFraction)
	if err != nil {
		return nil, err
	}
	if fold < 1 || fold > len(splits) {
		return nil, fmt.Errorf("trout: fold %d out of 1..%d", fold, len(splits))
	}
	return compareFold(ds, nnCfg, cmp, splits[fold-1], fold)
}

func compareFold(ds *Dataset, nnCfg ModelConfig, cmp CompareConfig, fold tscv.Fold, foldNum int) ([]ModelScore, error) {
	// Shared preprocessing: log-scale features (fit on train), long-job
	// subsets, log targets — every model sees identical data, as §IV
	// requires.
	scaler, err := scaling.New(nnCfg.Scaler)
	if err != nil {
		return nil, err
	}
	rawTrain := make([][]float64, len(fold.Train))
	for k, i := range fold.Train {
		rawTrain[k] = ds.X[i]
	}
	scaler.Fit(rawTrain)

	var trX [][]float64
	var trY []float64
	for _, i := range fold.Train {
		if ds.QueueMinutes[i] >= nnCfg.CutoffMinutes {
			trX = append(trX, scaler.Transform(ds.X[i]))
			trY = append(trY, math.Log1p(ds.QueueMinutes[i]))
		}
	}
	var teX [][]float64
	var teY []float64
	for _, i := range fold.Test {
		if ds.QueueMinutes[i] >= nnCfg.CutoffMinutes {
			teX = append(teX, scaler.Transform(ds.X[i]))
			teY = append(teY, ds.QueueMinutes[i])
		}
	}
	if len(trX) < 10 || len(teX) == 0 {
		return nil, fmt.Errorf("too few long jobs (train %d, test %d)", len(trX), len(teX))
	}

	score := func(name ModelName, predLog func([]float64) float64) ModelScore {
		pred := make([]float64, len(teX))
		for i, x := range teX {
			v := math.Expm1(predLog(x))
			if v < 0 {
				v = 0
			}
			pred[i] = v
		}
		return ModelScore{
			Model: name, Fold: foldNum, N: len(teX),
			MAPE:      metrics.MAPE(pred, teY),
			Within100: metrics.WithinPercent(pred, teY, 100),
			Pearson:   metrics.Pearson(pred, teY),
		}
	}

	var out []ModelScore

	// Neural network: train via core on the same fold (core re-applies
	// the same scaler kind internally).
	m, err := core.Train(ds, fold.Train, nnCfg)
	if err != nil {
		return nil, err
	}
	nnPred := make([]float64, len(teY))
	{
		k := 0
		for _, i := range fold.Test {
			if ds.QueueMinutes[i] >= nnCfg.CutoffMinutes {
				nnPred[k] = m.RegressMinutes(ds.X[i])
				k++
			}
		}
	}
	out = append(out, ModelScore{
		Model: ModelNeuralNet, Fold: foldNum, N: len(teY),
		MAPE:      metrics.MAPE(nnPred, teY),
		Within100: metrics.WithinPercent(nnPred, teY, 100),
		Pearson:   metrics.Pearson(nnPred, teY),
	})

	gbdt := baselines.NewGBDT(baselines.GBDTConfig{Rounds: cmp.GBDTRounds, Seed: cmp.Seed + 1})
	if err := gbdt.Fit(trX, trY); err != nil {
		return nil, err
	}
	out = append(out, score(ModelGBDT, gbdt.Predict))

	forest := baselines.NewForest(baselines.ForestConfig{
		Trees: cmp.ForestTrees,
		Tree:  baselines.TreeConfig{MaxDepth: 12, MinLeaf: 5, MaxFeatures: features.NumFeatures / 2},
		Seed:  cmp.Seed + 2,
	})
	if err := forest.Fit(trX, trY); err != nil {
		return nil, err
	}
	out = append(out, score(ModelRandomForest, forest.Predict))

	knn := baselines.NewKNN(baselines.KNNConfig{K: cmp.KNNK, Standardize: true})
	if err := knn.Fit(trX, trY); err != nil {
		return nil, err
	}
	out = append(out, score(ModelKNN, knn.Predict))

	return out, nil
}
