package trout_test

import (
	"math"
	"sync"
	"testing"

	trout "repro"
	"repro/internal/nn"
)

// testPipeline keeps test runtime modest: a 7000-job trace and shrunken
// training schedules.
func testPipeline() trout.PipelineConfig {
	p := trout.DefaultPipeline(7000, 21)
	p.Model.Classifier.Epochs = 6
	p.Model.Classifier.Hidden = []int{32, 16}
	p.Model.Regressor.Epochs = 10
	p.Model.Regressor.Hidden = []int{64, 32, 16}
	p.Model.Seed = 21
	p.Features.RuntimeTrees = 20
	return p
}

var (
	expOnce sync.Once
	expMemo *trout.Experiment
	expErr  error
)

func sharedExperiment(t *testing.T) *trout.Experiment {
	t.Helper()
	expOnce.Do(func() {
		expMemo, expErr = trout.NewExperiment(testPipeline())
	})
	if expErr != nil {
		t.Fatal(expErr)
	}
	return expMemo
}

func TestGenerateTraceShape(t *testing.T) {
	e := sharedExperiment(t)
	if len(e.Trace.Jobs) != 7000 {
		t.Fatalf("trace has %d jobs", len(e.Trace.Jobs))
	}
	if err := e.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Data.Len() != 7000 {
		t.Fatalf("dataset has %d rows", e.Data.Len())
	}
	if len(e.Data.X[0]) != len(trout.FeatureNames) {
		t.Fatalf("row width %d != %d features", len(e.Data.X[0]), len(trout.FeatureNames))
	}
}

func TestTableOneShape(t *testing.T) {
	e := sharedExperiment(t)
	one := e.RunTableOne()
	// The skew targets the paper documents, with generous bands.
	if one.ShortFraction < 0.7 || one.ShortFraction > 0.97 {
		t.Fatalf("short fraction %.3f outside [0.7, 0.97]", one.ShortFraction)
	}
	if one.SharedFraction < 0.4 {
		t.Fatalf("shared fraction %.3f", one.SharedFraction)
	}
	if one.MeanWalltimeUsage > 0.4 {
		t.Fatalf("mean wall-time usage %.3f — overestimation too weak", one.MeanWalltimeUsage)
	}
	if one.Stats.RequestedHours.Mean <= one.Stats.RuntimeHours.Mean {
		t.Fatal("requested hours must exceed runtime hours on average")
	}
}

func TestTableTwoSummaries(t *testing.T) {
	e := sharedExperiment(t)
	rows := e.RunTableTwo()
	if len(rows) != len(trout.FeatureNames) {
		t.Fatalf("%d feature summaries", len(rows))
	}
	for _, r := range rows {
		if r.Count != e.Data.Len() {
			t.Fatalf("feature %s count %d", r.Name, r.Count)
		}
		if math.IsNaN(r.Mean) {
			t.Fatalf("feature %s mean NaN", r.Name)
		}
	}
}

func TestFigTwoHistogram(t *testing.T) {
	e := sharedExperiment(t)
	bins := e.RunFigTwo(20)
	if len(bins) != 20 {
		t.Fatalf("%d bins", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != e.Data.Len() {
		t.Fatalf("histogram covers %d of %d", total, e.Data.Len())
	}
	// Exponential skew: the first half of (log) bins must dominate.
	firstHalf := 0
	for _, b := range bins[:10] {
		firstHalf += b.Count
	}
	if float64(firstHalf)/float64(total) < 0.5 {
		t.Fatal("queue-time density lost its left-heavy skew")
	}
}

func TestFigThreeSplits(t *testing.T) {
	e := sharedExperiment(t)
	splits, err := e.RunFigThree()
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("%d folds", len(splits))
	}
	for i, s := range splits {
		if s.TrainStart != 0 || s.TestStart != s.TrainEnd {
			t.Fatalf("fold %d layout %+v", i+1, s)
		}
	}
	if splits[4].TestEnd != e.Data.Len() {
		t.Fatal("last fold must reach the end")
	}
}

func TestTrainHoldoutAndPredict(t *testing.T) {
	e := sharedExperiment(t)
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(e.Data.X[fold.Test[0]])
	if p.Prob < 0 || p.Prob > 1 {
		t.Fatalf("prob %v", p.Prob)
	}
	msg := p.Message(10)
	if msg == "" {
		t.Fatal("empty message")
	}
}

func TestCrossValidate(t *testing.T) {
	e := sharedExperiment(t)
	fms, err := trout.CrossValidate(e.Data, e.Pipeline.Model, 3, 1.0/6.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != 3 {
		t.Fatalf("%d folds", len(fms))
	}
	for _, fm := range fms {
		if fm.N == 0 {
			t.Fatalf("fold %d evaluated no long jobs", fm.Fold)
		}
		if math.IsNaN(fm.MAPE) || fm.MAPE <= 0 {
			t.Fatalf("fold %d MAPE %v", fm.Fold, fm.MAPE)
		}
	}
}

func TestCompareFoldHasAllModels(t *testing.T) {
	e := sharedExperiment(t)
	scores, err := trout.CompareFold(e.Data, e.Pipeline.Model,
		trout.CompareConfig{GBDTRounds: 30, ForestTrees: 30, KNNK: 10, Seed: 1},
		e.Pipeline.Folds, e.Pipeline.TestFraction, e.Pipeline.Folds)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("%d model scores", len(scores))
	}
	names := map[trout.ModelName]bool{}
	for _, s := range scores {
		names[s.Model] = true
		if s.N == 0 || math.IsNaN(s.MAPE) {
			t.Fatalf("score %+v", s)
		}
		if s.Within100 < 0 || s.Within100 > 1 {
			t.Fatalf("within100 %v", s.Within100)
		}
	}
	for _, want := range []trout.ModelName{trout.ModelNeuralNet, trout.ModelGBDT, trout.ModelRandomForest, trout.ModelKNN} {
		if !names[want] {
			t.Fatalf("missing model %s", want)
		}
	}
}

func TestRunClassifier(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunClassifier()
	if err != nil {
		t.Fatal(err)
	}
	if res.BalancedAccuracy < 0.55 {
		t.Fatalf("balanced accuracy %.3f", res.BalancedAccuracy)
	}
	if res.N == 0 {
		t.Fatal("no test jobs")
	}
}

func TestRunScatter(t *testing.T) {
	e := sharedExperiment(t)
	sc, err := e.RunScatter(e.Pipeline.Folds) // final fold (paper's Fig 5)
	if err != nil {
		t.Fatal(err)
	}
	if sc.N < 10 || len(sc.Pred) != sc.N || len(sc.Actual) != sc.N {
		t.Fatalf("scatter N=%d", sc.N)
	}
	// Quality assertions live in the full-size experiment run
	// (EXPERIMENTS.md); a 7 k-job trace has too few long jobs in the last
	// fold for a stable correlation, so only sanity is checked here.
	if math.IsNaN(sc.Pearson) || math.IsNaN(sc.MAPE) || sc.MAPE <= 0 {
		t.Fatalf("degenerate scatter: r=%v MAPE=%v", sc.Pearson, sc.MAPE)
	}
	if _, err := e.RunScatter(99); err == nil {
		t.Fatal("out-of-range fold accepted")
	}
}

func TestLeakageAblationShowsLeak(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunLeakageAblation()
	if err != nil {
		t.Fatal(err)
	}
	// The paper observed shuffling roughly doubling apparent performance;
	// the direction is verified on the full-size run recorded in
	// EXPERIMENTS.md. At unit-test scale the long-job subsets are small
	// enough that only well-formedness is asserted.
	if math.IsNaN(res.TimeMAPE) || math.IsNaN(res.ShuffledMAPE) || res.TimeMAPE <= 0 || res.ShuffledMAPE <= 0 {
		t.Fatalf("degenerate leakage result %+v", res)
	}
	if res.Ratio != res.TimeMAPE/res.ShuffledMAPE {
		t.Fatal("ratio inconsistent")
	}
}

func TestCutoffAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunCutoffAblation([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.N == 0 || math.IsNaN(r.MAPE) {
			t.Fatalf("cutoff %v: %+v", r.CutoffMinutes, r)
		}
	}
}

func TestSMOTEAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunSMOTEAblation()
	if err != nil {
		t.Fatal(err)
	}
	if res.WithSMOTE.N != res.WithoutSMOTE.N {
		t.Fatal("ablation arms saw different test sets")
	}
}

func TestActivationAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunActivationAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d variants", len(res))
	}
	seen := map[string]bool{}
	for _, r := range res {
		seen[r.Name] = true
		if math.IsNaN(r.MAPE) {
			t.Fatalf("variant %s MAPE NaN", r.Name)
		}
	}
	if !seen["ELU"] || !seen["ELU+BatchNorm"] {
		t.Fatal("missing paper variants")
	}
}

func TestScalingAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunScalingAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d scalers", len(res))
	}
}

func TestModelConfigVariantsTrain(t *testing.T) {
	// Public config knobs must compose: ReLU + no dropout + MSE loss.
	e := sharedExperiment(t)
	cfg := e.Pipeline.Model
	cfg.Regressor.Activation = nn.ReLU
	cfg.Regressor.Dropout = 0
	cfg.RegressorLoss = nn.MSE
	cfg.Classifier.Epochs = 2
	cfg.Regressor.Epochs = 2
	m, _, err := trout.TrainHoldout(e.Data, cfg, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
}
