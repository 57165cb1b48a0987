package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/nn"
	"repro/internal/slurmsim"
	"repro/internal/tscv"
	"repro/internal/workload"
)

// buildDataset runs the full substrate chain (workload → simulator →
// features) once and caches the result for all tests in this package.
var (
	dsOnce sync.Once
	dsMemo *features.Dataset
	dsErr  error
)

func testDataset(t *testing.T) *features.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cluster := slurmsim.AnvilLike(1)
		specs, err := workload.Generate(workload.DefaultConfig(8000, 11), &cluster)
		if err != nil {
			dsErr = err
			return
		}
		tr, _, err := slurmsim.Run(slurmsim.DefaultConfig(1), specs)
		if err != nil {
			dsErr = err
			return
		}
		dsMemo, dsErr = livestate.Build(tr, &cluster, features.Options{Seed: 12, RuntimeTrees: 20})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsMemo
}

// fastConfig shrinks training for test speed.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Classifier.Epochs = 8
	cfg.Classifier.Hidden = []int{32, 16}
	cfg.Regressor.Epochs = 15
	cfg.Regressor.Hidden = []int{64, 32, 16}
	cfg.Seed = 13
	cfg.Workers = 2
	return cfg
}

func trainedModel(t *testing.T) (*Model, *features.Dataset, tscv.Fold) {
	t.Helper()
	ds := testDataset(t)
	fold, err := tscv.HoldoutRecent(ds.Len(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(ds, fold.Train, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, ds, fold
}

var (
	modelOnce sync.Once
	modelMemo *Model
	foldMemo  tscv.Fold
)

func sharedModel(t *testing.T) (*Model, *features.Dataset, tscv.Fold) {
	t.Helper()
	ds := testDataset(t)
	modelOnce.Do(func() {
		fold, err := tscv.HoldoutRecent(ds.Len(), 0.2)
		if err != nil {
			dsErr = err
			return
		}
		foldMemo = fold
		modelMemo, dsErr = Train(ds, fold.Train, fastConfig())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return modelMemo, ds, foldMemo
}

func TestTrainAndClassifierBeatsChance(t *testing.T) {
	m, ds, fold := sharedModel(t)
	ev := EvaluateClassifier(m, ds, fold.Test)
	// The classifier must beat the majority-class rate on *balanced*
	// accuracy (majority guessing scores 0.5 there).
	if ba := ev.BalancedAccuracy(); ba < 0.6 {
		t.Fatalf("balanced accuracy %.3f, want > 0.6", ba)
	}
	if ev.Accuracy() < 0.6 {
		t.Fatalf("accuracy %.3f", ev.Accuracy())
	}
}

func TestRegressorCorrelates(t *testing.T) {
	m, ds, fold := sharedModel(t)
	ev := EvaluateRegression(m, ds, fold.Test)
	if ev.N < 20 {
		t.Fatalf("only %d long test jobs", ev.N)
	}
	// At unit-test scale (8 k jobs, ~100 long test jobs) the correlation
	// is noisy; the real quality bar is the 60 k-job run recorded in
	// EXPERIMENTS.md (fold-5 r ≈ 0.72). Here we assert sanity: finite
	// MAPE in a plausible band and a non-degenerate prediction spread.
	if math.IsNaN(ev.MAPE) || ev.MAPE <= 0 || ev.MAPE > 1000 {
		t.Fatalf("MAPE = %v", ev.MAPE)
	}
	if math.IsNaN(ev.Pearson) {
		t.Fatal("Pearson is NaN — constant predictions")
	}
}

func TestPredictContract(t *testing.T) {
	m, ds, fold := sharedModel(t)
	for _, i := range fold.Test[:200] {
		p := m.Predict(ds.X[i])
		if p.Prob < 0 || p.Prob > 1 {
			t.Fatalf("prob %v out of range", p.Prob)
		}
		if p.Long != (p.Prob >= 0.5) {
			t.Fatal("Long inconsistent with Prob")
		}
		if p.Long && p.Minutes < m.Cfg.CutoffMinutes {
			t.Fatalf("long prediction %v below cutoff", p.Minutes)
		}
		if !p.Long && p.Minutes != 0 {
			t.Fatal("quick-start prediction should not carry minutes")
		}
	}
}

func TestPredictionMessage(t *testing.T) {
	long := Prediction{Long: true, Minutes: 42.4}
	if got := long.Message(10); got != "Predicted to start in 42 minutes" {
		t.Fatalf("message = %q", got)
	}
	short := Prediction{Long: false}
	if got := short.Message(10); !strings.Contains(got, "less than 10 minutes") {
		t.Fatalf("message = %q", got)
	}
}

// TestPredictionMessageMatchesSprintf: Message writes the bytes the
// fmt.Sprintf formats it replaced write, whatever minute count or cutoff
// it is given, odd values included.
func TestPredictionMessageMatchesSprintf(t *testing.T) {
	for _, minutes := range []float64{0, 0.5, 1e12, -3.6, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cutoff := range []float64{10, 0, 7.9} {
			long := Prediction{Long: true, Minutes: minutes}
			if got, want := long.Message(cutoff), fmt.Sprintf("Predicted to start in %d minutes", int(math.Round(minutes))); got != want {
				t.Errorf("minutes %v cutoff %v: %q, Sprintf %q", minutes, cutoff, got, want)
			}
			short := Prediction{Minutes: minutes}
			if got, want := short.Message(cutoff), fmt.Sprintf("Predicted to take less than %d minutes", int(cutoff)); got != want {
				t.Errorf("short, cutoff %v: %q, Sprintf %q", cutoff, got, want)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, ds, fold := sharedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range fold.Test[:50] {
		a := m.Predict(ds.X[i])
		b := loaded.Predict(ds.X[i])
		if a.Long != b.Long || math.Abs(a.Prob-b.Prob) > 1e-12 || math.Abs(a.Minutes-b.Minutes) > 1e-9 {
			t.Fatal("loaded model predicts differently")
		}
	}
	if loaded.NumInputs != m.NumInputs {
		t.Fatal("NumInputs not preserved")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTrainErrors(t *testing.T) {
	ds := testDataset(t)
	cfg := fastConfig()
	if _, err := Train(ds, []int{0, 1, 2}, cfg); err == nil {
		t.Fatal("tiny training set accepted")
	}
	bad := cfg
	bad.CutoffMinutes = 0
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	if _, err := Train(ds, idx, bad); err == nil {
		t.Fatal("zero cutoff accepted")
	}
	badScaler := cfg
	badScaler.Scaler = "bogus"
	if _, err := Train(ds, idx, badScaler); err == nil {
		t.Fatal("bogus scaler accepted")
	}
}

func TestTrainWithoutSMOTE(t *testing.T) {
	ds := testDataset(t)
	fold, _ := tscv.HoldoutRecent(ds.Len(), 0.2)
	cfg := fastConfig()
	cfg.UseSMOTE = false
	cfg.Classifier.Epochs = 4
	cfg.Regressor.Epochs = 5
	m, err := Train(ds, fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Classifier == nil {
		t.Fatal("no classifier")
	}
}

func TestTrainWithBatchNormAndReLU(t *testing.T) {
	// The A4 ablation path must at least train and predict finitely.
	ds := testDataset(t)
	fold, _ := tscv.HoldoutRecent(ds.Len(), 0.2)
	cfg := fastConfig()
	cfg.Regressor.BatchNorm = true
	cfg.Regressor.Activation = nn.ReLU
	cfg.Regressor.Epochs = 5
	cfg.Classifier.Epochs = 3
	m, err := Train(ds, fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := m.RegressMinutes(ds.X[fold.Test[0]])
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("BatchNorm regressor predicts %v", v)
	}
}

func TestDeterministicTraining(t *testing.T) {
	ds := testDataset(t)
	fold, _ := tscv.HoldoutRecent(ds.Len(), 0.2)
	cfg := fastConfig()
	cfg.Classifier.Epochs = 3
	cfg.Regressor.Epochs = 3
	cfg.Workers = 2
	a, err := Train(ds, fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(ds, fold.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range fold.Test[:20] {
		if a.Predict(ds.X[i]) != b.Predict(ds.X[i]) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestQuantileModel(t *testing.T) {
	ds := testDataset(t)
	fold, err := tscv.HoldoutRecent(ds.Len(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Regressor.Epochs = 10
	qm, err := TrainQuantiles(ds, fold.Train, cfg, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Intervals are sorted and non-negative.
	for _, i := range fold.Test[:100] {
		iv := qm.Interval(ds.X[i])
		if len(iv) != 3 {
			t.Fatalf("interval size %d", len(iv))
		}
		if iv[0] < 0 || iv[0] > iv[1] || iv[1] > iv[2] {
			t.Fatalf("unsorted interval %v", iv)
		}
	}
	cov, width, n := qm.Coverage(ds, fold.Test)
	if n == 0 {
		t.Fatal("no long jobs covered")
	}
	// An 80% nominal band, loosely checked (small-sample + shift noise).
	if cov < 0.3 || cov > 1.0 {
		t.Fatalf("coverage %v implausible", cov)
	}
	if width <= 0 {
		t.Fatalf("mean width %v", width)
	}
}

func TestTrainQuantilesErrors(t *testing.T) {
	ds := testDataset(t)
	cfg := fastConfig()
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	if _, err := TrainQuantiles(ds, idx, cfg, nil); err == nil {
		t.Fatal("empty taus accepted")
	}
	if _, err := TrainQuantiles(ds, idx, cfg, []float64{0.5, 1.5}); err == nil {
		t.Fatal("tau out of range accepted")
	}
	if _, err := TrainQuantiles(ds, idx[:5], cfg, []float64{0.5}); err == nil {
		t.Fatal("tiny training set accepted")
	}
}
