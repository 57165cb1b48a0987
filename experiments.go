package trout

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/scaling"
	"repro/internal/trace"
	"repro/internal/tscv"
)

// Experiment bundles one generated trace + dataset so the per-figure
// runners share the expensive pipeline stages.
type Experiment struct {
	Pipeline PipelineConfig
	Trace    *Trace
	Cluster  *ClusterSpec
	Data     *Dataset
}

// NewExperiment generates the trace and engineers features once.
func NewExperiment(p PipelineConfig) (*Experiment, error) {
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		return nil, err
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		return nil, err
	}
	return &Experiment{Pipeline: p, Trace: tr, Cluster: cluster, Data: ds}, nil
}

// --- T1: Table I — historic job statistics ---

// TableOne reproduces the paper's Table I over the synthetic trace.
type TableOne struct {
	Stats             trace.TableOneStats
	ShortFraction     float64 // jobs queueing < 10 min (paper: 0.87)
	SharedFraction    float64 // jobs in `shared` (paper: 0.6895)
	MeanWalltimeUsage float64 // paper: ≈ 0.15
}

// RunTableOne computes Table I.
func (e *Experiment) RunTableOne() TableOne {
	byPart := e.Trace.ByPartition()
	return TableOne{
		Stats:             e.Trace.TableOne(),
		ShortFraction:     e.Trace.ShortQueueFraction(600),
		SharedFraction:    float64(byPart["shared"]) / float64(len(e.Trace.Jobs)),
		MeanWalltimeUsage: e.Trace.MeanWalltimeUsage(),
	}
}

// Print renders the table in the paper's row layout.
func (t TableOne) Print(w io.Writer) {
	row := func(name string, s trace.Summary) {
		fmt.Fprintf(w, "%-24s %10.1f %10.2f %10.2f %10.2f %10d\n",
			name, s.Max, s.Mean, s.Median, s.StdDev, s.Count)
	}
	fmt.Fprintf(w, "%-24s %10s %10s %10s %10s %10s\n", "Variable", "Max", "Mean", "Median", "StdDev", "Count")
	row("Requested Time (hr)", t.Stats.RequestedHours)
	row("Runtime (hr)", t.Stats.RuntimeHours)
	row("Wasted Time (hr)", t.Stats.WastedHours)
	row("Jobs Submitted By User", t.Stats.JobsPerUser)
	fmt.Fprintf(w, "short-queue fraction (<10 min): %.4f  shared-partition fraction: %.4f  mean wall-time usage: %.4f\n",
		t.ShortFraction, t.SharedFraction, t.MeanWalltimeUsage)
}

// --- T2: Table II — the feature set ---

// FeatureSummary describes one engineered feature column.
type FeatureSummary struct {
	Name string
	trace.Summary
}

// RunTableTwo summarizes every Table II feature column over the dataset.
func (e *Experiment) RunTableTwo() []FeatureSummary {
	out := make([]FeatureSummary, len(e.Data.Names))
	col := make([]float64, e.Data.Len())
	for f, name := range e.Data.Names {
		for i, row := range e.Data.X {
			col[i] = row[f]
		}
		out[f] = FeatureSummary{Name: name, Summary: trace.Summarize(col)}
	}
	return out
}

// --- F2: queue-time density ---

// RunFigTwo returns the log-binned queue-time histogram (minutes).
func (e *Experiment) RunFigTwo(bins int) []metrics.HistBin {
	return metrics.LogHistogram(e.Data.QueueMinutes, bins)
}

// --- F3: time-series split diagram ---

// SplitDescription describes one CV fold's windows (Fig 3).
type SplitDescription struct {
	Fold       int
	TrainStart int
	TrainEnd   int // exclusive
	TestStart  int
	TestEnd    int // exclusive
}

// RunFigThree returns the CV fold layout for the current dataset.
func (e *Experiment) RunFigThree() ([]SplitDescription, error) {
	folds, err := tscv.Split(e.Data.Len(), e.Pipeline.Folds, e.Pipeline.TestFraction)
	if err != nil {
		return nil, err
	}
	out := make([]SplitDescription, len(folds))
	for i, f := range folds {
		out[i] = SplitDescription{
			Fold:       i + 1,
			TrainStart: f.Train[0], TrainEnd: f.Train[len(f.Train)-1] + 1,
			TestStart: f.Test[0], TestEnd: f.Test[len(f.Test)-1] + 1,
		}
	}
	return out, nil
}

// --- F4/F5: predicted-vs-actual scatter per fold ---

// ScatterResult carries the scatter series and its Pearson r (paper fold 5:
// r = 0.7532).
type ScatterResult struct {
	Fold    int
	Pearson float64
	MAPE    float64
	N       int
	Pred    []float64
	Actual  []float64
}

// RunScatter trains the hierarchical model on the given 1-based CV fold and
// returns its long-job scatter (Fig 4 is fold 4, Fig 5 is fold 5).
func (e *Experiment) RunScatter(fold int) (ScatterResult, error) {
	folds, err := tscv.Split(e.Data.Len(), e.Pipeline.Folds, e.Pipeline.TestFraction)
	if err != nil {
		return ScatterResult{}, err
	}
	if fold < 1 || fold > len(folds) {
		return ScatterResult{}, fmt.Errorf("trout: fold %d out of 1..%d", fold, len(folds))
	}
	m, err := core.Train(e.Data, folds[fold-1].Train, e.Pipeline.Model)
	if err != nil {
		return ScatterResult{}, err
	}
	ev := core.EvaluateRegression(m, e.Data, folds[fold-1].Test)
	return ScatterResult{
		Fold: fold, Pearson: ev.Pearson, MAPE: ev.MAPE, N: ev.N,
		Pred: ev.Pred, Actual: ev.Actual,
	}, nil
}

// --- F6–F9: model comparison per fold ---

// RunComparison runs the four-model comparison on one 1-based fold.
// Fig 6 / Fig 8 use fold 4; Fig 7 / Fig 9 use fold 5.
func (e *Experiment) RunComparison(fold int, cmp CompareConfig) ([]ModelScore, error) {
	return CompareFold(e.Data, e.Pipeline.Model, cmp, e.Pipeline.Folds, e.Pipeline.TestFraction, fold)
}

// --- R1: classifier accuracy ---

// ClassifierResult is the §IV classifier evaluation (paper: 90.48 % with
// similar per-class accuracy on the most recent jobs).
type ClassifierResult struct {
	Accuracy         float64
	BalancedAccuracy float64
	Precision        float64
	Recall           float64
	F1               float64
	AUC              float64
	N                int
}

// RunClassifier trains on all but the most recent 20 % and scores the
// quick-start/long classifier on that holdout.
func (e *Experiment) RunClassifier() (ClassifierResult, error) {
	m, fold, err := TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return ClassifierResult{}, err
	}
	ev := core.EvaluateClassifier(m, e.Data, fold.Test)
	return ClassifierResult{
		Accuracy:         ev.Accuracy(),
		BalancedAccuracy: ev.BalancedAccuracy(),
		Precision:        ev.Precision(),
		Recall:           ev.Recall(),
		F1:               ev.F1(),
		AUC:              ev.AUC,
		N:                ev.N,
	}, nil
}

// --- R2: regression MAPE over the last three folds ---

// RunRegressionFolds returns per-fold regression metrics; the paper reports
// the mean MAPE of the final three (69.99, 90.87, 131.18 → 97.57 %).
func (e *Experiment) RunRegressionFolds() ([]FoldMetrics, float64, error) {
	fm, err := CrossValidate(e.Data, e.Pipeline.Model, e.Pipeline.Folds, e.Pipeline.TestFraction)
	if err != nil {
		return nil, 0, err
	}
	lastThree := fm
	if len(fm) > 3 {
		lastThree = fm[len(fm)-3:]
	}
	var mean float64
	for _, f := range lastThree {
		mean += f.MAPE
	}
	mean /= float64(len(lastThree))
	return fm, mean, nil
}

// --- A1: cutoff ablation (5 vs 10 vs 30 minutes) ---

// CutoffResult is one cutoff's regression performance on the final fold.
type CutoffResult struct {
	CutoffMinutes float64
	MAPE          float64
	N             int
	ClassifierBA  float64
}

// RunCutoffAblation re-trains at each cutoff (paper §III: 5 min roughly
// doubles regression MAPE; 30 min is marginal).
func (e *Experiment) RunCutoffAblation(cutoffs []float64) ([]CutoffResult, error) {
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return nil, err
	}
	out := make([]CutoffResult, 0, len(cutoffs))
	for _, c := range cutoffs {
		cfg := e.Pipeline.Model
		cfg.CutoffMinutes = c
		m, err := core.Train(e.Data, fold.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("trout: cutoff %v: %w", c, err)
		}
		reg := core.EvaluateRegression(m, e.Data, fold.Test)
		cls := core.EvaluateClassifier(m, e.Data, fold.Test)
		out = append(out, CutoffResult{
			CutoffMinutes: c, MAPE: reg.MAPE, N: reg.N,
			ClassifierBA: cls.BalancedAccuracy(),
		})
	}
	return out, nil
}

// --- A2: shuffled-split leakage ---

// LeakageResult contrasts time-ordered and shuffled splits (§III: shuffling
// roughly doubled apparent performance through burst leakage).
type LeakageResult struct {
	TimeMAPE     float64
	ShuffledMAPE float64
	// Ratio > 1 means the shuffled split looks better than it should.
	Ratio float64
}

// RunLeakageAblation trains the regressor under both splits.
func (e *Experiment) RunLeakageAblation() (LeakageResult, error) {
	timeFold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return LeakageResult{}, err
	}
	shufFold, err := tscv.ShuffledSplit(e.Data.Len(), 0.2, e.Pipeline.Seed+77)
	if err != nil {
		return LeakageResult{}, err
	}
	evalFold := func(f tscv.Fold) (float64, error) {
		m, err := core.Train(e.Data, f.Train, e.Pipeline.Model)
		if err != nil {
			return 0, err
		}
		return core.EvaluateRegression(m, e.Data, f.Test).MAPE, nil
	}
	tm, err := evalFold(timeFold)
	if err != nil {
		return LeakageResult{}, err
	}
	sm, err := evalFold(shufFold)
	if err != nil {
		return LeakageResult{}, err
	}
	return LeakageResult{TimeMAPE: tm, ShuffledMAPE: sm, Ratio: tm / sm}, nil
}

// --- A3: SMOTE ablation ---

// SMOTEResult contrasts classifier quality with and without balancing.
type SMOTEResult struct {
	WithSMOTE    ClassifierResult
	WithoutSMOTE ClassifierResult
}

// RunSMOTEAblation trains the classifier with and without SMOTE.
func (e *Experiment) RunSMOTEAblation() (SMOTEResult, error) {
	run := func(use bool) (ClassifierResult, error) {
		cfg := e.Pipeline.Model
		cfg.UseSMOTE = use
		m, fold, err := TrainHoldout(e.Data, cfg, 0.2)
		if err != nil {
			return ClassifierResult{}, err
		}
		ev := core.EvaluateClassifier(m, e.Data, fold.Test)
		return ClassifierResult{
			Accuracy: ev.Accuracy(), BalancedAccuracy: ev.BalancedAccuracy(),
			Precision: ev.Precision(), Recall: ev.Recall(), F1: ev.F1(), N: ev.N,
		}, nil
	}
	with, err := run(true)
	if err != nil {
		return SMOTEResult{}, err
	}
	without, err := run(false)
	if err != nil {
		return SMOTEResult{}, err
	}
	return SMOTEResult{WithSMOTE: with, WithoutSMOTE: without}, nil
}

// --- A4: activation / batch-norm ablation ---

// VariantResult is one regressor variant's holdout performance.
type VariantResult struct {
	Name string
	MAPE float64
	N    int
}

// RunActivationAblation compares ELU (paper's choice), ReLU, Tanh and
// ELU+BatchNorm regressors on the holdout.
func (e *Experiment) RunActivationAblation() ([]VariantResult, error) {
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		act  nn.ActivationKind
		bn   bool
	}{
		{"ELU", nn.ELU, false},
		{"ReLU", nn.ReLU, false},
		{"Tanh", nn.Tanh, false},
		{"ELU+BatchNorm", nn.ELU, true},
	}
	out := make([]VariantResult, 0, len(variants))
	for _, v := range variants {
		cfg := e.Pipeline.Model
		cfg.Regressor.Activation = v.act
		cfg.Regressor.BatchNorm = v.bn
		m, err := core.Train(e.Data, fold.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("trout: variant %s: %w", v.name, err)
		}
		ev := core.EvaluateRegression(m, e.Data, fold.Test)
		out = append(out, VariantResult{Name: v.name, MAPE: ev.MAPE, N: ev.N})
	}
	return out, nil
}

// RunScalingAblation compares the log transform against the scalers the
// paper tested and rejected (min-max, Box-Cox) plus standardization and no
// scaling.
func (e *Experiment) RunScalingAblation() ([]VariantResult, error) {
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return nil, err
	}
	out := make([]VariantResult, 0, len(scaling.Kinds()))
	for _, k := range scaling.Kinds() {
		cfg := e.Pipeline.Model
		cfg.Scaler = k
		m, err := core.Train(e.Data, fold.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("trout: scaler %s: %w", k, err)
		}
		ev := core.EvaluateRegression(m, e.Data, fold.Test)
		out = append(out, VariantResult{Name: string(k), MAPE: ev.MAPE, N: ev.N})
	}
	return out, nil
}
