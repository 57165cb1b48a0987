package core

import (
	"repro/internal/features"
	"repro/internal/metrics"
)

// RegressionEval summarizes the regression head on the truly-long jobs of a
// test slice — the quantities behind the paper's Figs 4–9 and §IV numbers.
type RegressionEval struct {
	N         int
	MAPE      float64
	Pearson   float64
	Within100 float64
	MAE       float64
	Pred      []float64 // minutes, aligned with Actual
	Actual    []float64
}

// EvaluateRegression applies the regression head to every test job whose
// true queue time exceeds the cutoff.
func EvaluateRegression(m *Model, ds *features.Dataset, testIdx []int) RegressionEval {
	var pred, actual []float64
	for _, i := range testIdx {
		if ds.QueueMinutes[i] < m.Cfg.CutoffMinutes {
			continue
		}
		pred = append(pred, m.RegressMinutes(ds.X[i]))
		actual = append(actual, ds.QueueMinutes[i])
	}
	return RegressionEval{
		N:         len(pred),
		MAPE:      metrics.MAPE(pred, actual),
		Pearson:   metrics.Pearson(pred, actual),
		Within100: metrics.WithinPercent(pred, actual, 100),
		MAE:       metrics.MAE(pred, actual),
		Pred:      pred,
		Actual:    actual,
	}
}

// ClassifierEval summarizes the classifier on a test slice.
type ClassifierEval struct {
	metrics.Confusion
	N   int
	AUC float64 // threshold-free ranking quality (0.5 = chance)
}

// EvaluateClassifier scores the quick-start/long classifier on a test slice.
func EvaluateClassifier(m *Model, ds *features.Dataset, testIdx []int) ClassifierEval {
	probs := make([]float64, len(testIdx))
	labels := make([]bool, len(testIdx))
	for k, i := range testIdx {
		probs[k] = m.ClassifyProb(ds.X[i])
		labels[k] = ds.QueueMinutes[i] >= m.Cfg.CutoffMinutes
	}
	return ClassifierEval{
		Confusion: metrics.Confuse(probs, labels),
		N:         len(testIdx),
		AUC:       metrics.AUC(probs, labels),
	}
}
