package main

import (
	"fmt"
	"math"

	trout "repro"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/metrics"
	"repro/internal/shap"
	"repro/internal/slurmsim"
	"repro/internal/tscv"
	"repro/internal/workload"
)

// --- Error by actual-queue-time bin (§IV: "proportionate predictive
// capabilities across periods ... investigating performance on different
// bins of time") ---

// BinError is the regression error within one actual-queue-time decade.
type BinError struct {
	LoMinutes, HiMinutes float64
	N                    int
	MAPE                 float64
	Within100            float64
}

// RunErrorByBin trains on the holdout protocol and reports long-job
// regression error stratified by the actual queue-time decade.
func (e *Experiment) RunErrorByBin() ([]BinError, error) {
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return nil, err
	}
	ev := core.EvaluateRegression(m, e.Data, fold.Test)
	type bucket struct {
		pred, actual []float64
	}
	buckets := map[int]*bucket{}
	for i, a := range ev.Actual {
		d := 1 // first decade: [10, 100)
		for v := a; v >= 100; v /= 10 {
			d++
		}
		b := buckets[d]
		if b == nil {
			b = &bucket{}
			buckets[d] = b
		}
		b.pred = append(b.pred, ev.Pred[i])
		b.actual = append(b.actual, a)
	}
	var out []BinError
	for d := 1; d <= 6; d++ {
		b := buckets[d]
		if b == nil {
			continue
		}
		lo := math.Pow(10, float64(d))
		out = append(out, BinError{
			LoMinutes: lo, HiMinutes: lo * 10,
			N:         len(b.pred),
			MAPE:      metrics.MAPE(b.pred, b.actual),
			Within100: metrics.WithinPercent(b.pred, b.actual, 100),
		})
	}
	return out, nil
}

// --- Feature-group ablation (the paper's SHAP-driven feature selection,
// §III: feature sets were tested and pruned by importance) ---

// FeatureGroup names a block of Table II columns.
type FeatureGroup struct {
	Name    string
	Columns []int
}

// FeatureGroups partitions the 33 features into the paper's conceptual
// blocks.
func FeatureGroups() []FeatureGroup {
	idx := func(names ...string) []int {
		var out []int
		for _, want := range names {
			for i, n := range features.Names {
				if n == want {
					out = append(out, i)
				}
			}
		}
		return out
	}
	return []FeatureGroup{
		{"job request", idx("Priority", "Timelimit Raw", "Req CPUs", "Req Mem", "Req Nodes")},
		{"queue ahead", idx("Par Jobs Ahead", "Par CPUs Ahead", "Par Mem Ahead", "Par Nodes Ahead", "Par Timelimit Ahead")},
		{"queue state", idx("Par Jobs Queue", "Par CPUs Queue", "Par Mem Queue", "Par Nodes Queue", "Par Timelimit Queue")},
		{"running state", idx("Par Jobs Running", "Par CPUs Running", "Par Mem Running", "Par Nodes Running", "Par Timelimit Running")},
		{"user history", idx("User Jobs Past Day", "User CPUs Past Day", "User Mem Past Day", "User Nodes Past Day", "User Timelimit Past Day")},
		{"partition constants", idx("Par Total Nodes", "Par Total CPU", "Par CPU per Node", "Par Mem per Node", "Par Total GPU")},
		{"runtime predictions", idx("Pred Runtime", "Par Queue Pred Timelimit", "Par Running Pred Timelimit")},
	}
}

// GroupAblation is one group-removal result.
type GroupAblation struct {
	Dropped string
	MAPE    float64
	N       int
}

// RunFeatureGroupAblation retrains the regressor with each feature group
// zeroed out (columns carry no information), measuring how much each block
// contributes — the experiment behind the paper's feature-selection claims.
// The first row ("none") is the full model.
func (e *Experiment) RunFeatureGroupAblation() ([]GroupAblation, error) {
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return nil, err
	}
	run := func(name string, drop []int) (GroupAblation, error) {
		ds := e.Data
		if len(drop) > 0 {
			ds = maskColumns(e.Data, drop)
		}
		m, err := core.Train(ds, fold.Train, e.Pipeline.Model)
		if err != nil {
			return GroupAblation{}, fmt.Errorf("trout: ablation %q: %w", name, err)
		}
		ev := core.EvaluateRegression(m, ds, fold.Test)
		return GroupAblation{Dropped: name, MAPE: ev.MAPE, N: ev.N}, nil
	}
	out := make([]GroupAblation, 0, 8)
	full, err := run("none", nil)
	if err != nil {
		return nil, err
	}
	out = append(out, full)
	for _, g := range FeatureGroups() {
		r, err := run(g.Name, g.Columns)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// maskColumns returns a shallow dataset copy with the given columns zeroed.
func maskColumns(ds *trout.Dataset, cols []int) *trout.Dataset {
	masked := &trout.Dataset{
		Names:        ds.Names,
		X:            make([][]float64, len(ds.X)),
		QueueMinutes: ds.QueueMinutes,
		Jobs:         ds.Jobs,
		PredRuntime:  ds.PredRuntime,
		Runtime:      ds.Runtime,
	}
	for i, row := range ds.X {
		r := append([]float64(nil), row...)
		for _, c := range cols {
			r[c] = 0
		}
		masked.X[i] = r
	}
	return masked
}

// --- Online adaptation (§V future work: online learning) ---

// OnlineResult contrasts a stale model with one updated on fresh data.
type OnlineResult struct {
	StaleMAPE      float64
	UpdatedMAPE    float64
	StaleClassBA   float64
	UpdatedClassBA float64
	N              int
}

// RunOnlineAdaptation trains on the oldest 60 % of jobs, then fine-tunes a
// copy on the next 20 % (ContinueTraining) and compares both on the most
// recent 20 %.
func (e *Experiment) RunOnlineAdaptation(updateEpochs int) (OnlineResult, error) {
	if updateEpochs <= 0 {
		updateEpochs = 5
	}
	n := e.Data.Len()
	trainEnd := n * 6 / 10
	updateEnd := n * 8 / 10
	trainIdx := seq(0, trainEnd)
	updateIdx := seq(trainEnd, updateEnd)
	testIdx := seq(updateEnd, n)

	stale, err := core.Train(e.Data, trainIdx, e.Pipeline.Model)
	if err != nil {
		return OnlineResult{}, err
	}
	// Deterministic training: retrain an identical copy to fine-tune, so
	// the stale model stays untouched for comparison.
	updated, err := core.Train(e.Data, trainIdx, e.Pipeline.Model)
	if err != nil {
		return OnlineResult{}, err
	}
	if err := updated.ContinueTraining(e.Data, updateIdx, updateEpochs); err != nil {
		return OnlineResult{}, err
	}

	staleReg := core.EvaluateRegression(stale, e.Data, testIdx)
	updReg := core.EvaluateRegression(updated, e.Data, testIdx)
	staleCls := core.EvaluateClassifier(stale, e.Data, testIdx)
	updCls := core.EvaluateClassifier(updated, e.Data, testIdx)
	return OnlineResult{
		StaleMAPE:      staleReg.MAPE,
		UpdatedMAPE:    updReg.MAPE,
		StaleClassBA:   staleCls.BalancedAccuracy(),
		UpdatedClassBA: updCls.BalancedAccuracy(),
		N:              len(testIdx),
	}, nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// --- Transferability (§V: "the hierarchical model can be easily
// specialized for any other HPC system ... through retraining with the
// respective historical data") ---

// TransferResult contrasts zero-shot transfer with local retraining on a
// differently-shaped cluster.
type TransferResult struct {
	// SourceMAPE is the model's holdout MAPE on its home cluster.
	SourceMAPE float64
	// ZeroShotMAPE applies the home-trained model to the foreign
	// cluster's holdout unchanged.
	ZeroShotMAPE float64
	// RetrainedMAPE retrains from scratch on the foreign cluster's
	// history, the paper's prescription.
	RetrainedMAPE float64
	SourceBA      float64
	ZeroShotBA    float64
	RetrainedBA   float64
	N             int
}

// RunTransfer synthesizes a second, homogeneous cluster (no partitions
// beyond shared/standby, different node shapes), replays a workload on it,
// and measures zero-shot vs retrained performance there.
func (e *Experiment) RunTransfer() (TransferResult, error) {
	// Home model.
	home, homeFold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return TransferResult{}, err
	}
	homeReg := core.EvaluateRegression(home, e.Data, homeFold.Test)
	homeCls := core.EvaluateClassifier(home, e.Data, homeFold.Test)

	// Foreign cluster: 48 fat nodes, 64 cores, 512 GB, no GPUs — a very
	// different shape from AnvilLike.
	foreign := slurmsim.Uniform(48, 64, 512, 0)
	wl := workload.DefaultConfig(e.Pipeline.Jobs, e.Pipeline.Seed+911)
	wl.PartitionMix = map[string]float64{"shared": 0.9, "standby": 0.1}
	// A homogeneous cluster has no exclusive-partition fragmentation or
	// GPU scarcity, so it needs a higher offered load to produce the same
	// queueing skew.
	wl.TargetUtilization = 0.9
	specs, err := workload.Generate(wl, &foreign)
	if err != nil {
		return TransferResult{}, err
	}
	simCfg := slurmsim.DefaultConfig(1)
	simCfg.Cluster = foreign
	tr2, _, err := slurmsim.Run(simCfg, specs)
	if err != nil {
		return TransferResult{}, err
	}
	opt := e.Pipeline.Features
	opt.Seed = e.Pipeline.Seed + 912
	ds2, err := livestate.Build(tr2, &foreign, opt)
	if err != nil {
		return TransferResult{}, err
	}
	fold2, err := tscv.HoldoutRecent(ds2.Len(), 0.2)
	if err != nil {
		return TransferResult{}, err
	}

	zeroReg := core.EvaluateRegression(home, ds2, fold2.Test)
	zeroCls := core.EvaluateClassifier(home, ds2, fold2.Test)

	retrained, err := core.Train(ds2, fold2.Train, e.Pipeline.Model)
	if err != nil {
		return TransferResult{}, err
	}
	reReg := core.EvaluateRegression(retrained, ds2, fold2.Test)
	reCls := core.EvaluateClassifier(retrained, ds2, fold2.Test)

	return TransferResult{
		SourceMAPE:    homeReg.MAPE,
		ZeroShotMAPE:  zeroReg.MAPE,
		RetrainedMAPE: reReg.MAPE,
		SourceBA:      homeCls.BalancedAccuracy(),
		ZeroShotBA:    zeroCls.BalancedAccuracy(),
		RetrainedBA:   reCls.BalancedAccuracy(),
		N:             len(fold2.Test),
	}, nil
}

// --- Scheduler forward-simulation ETA: the classical pre-ML baseline
// (simulate the queue ahead assuming every job runs to its limit) against
// TROUT's learned model ---

// ETAComparison scores the simulation baseline against TROUT on the same
// long jobs.
type ETAComparison struct {
	N            int
	SimMAPE      float64
	TroutMAPE    float64
	SimPearson   float64
	TroutPearson float64
}

// RunSchedulerETA compares the forward-simulation estimator with TROUT's
// regression head on a sample of truly-long holdout jobs. The simulator
// knows the exact scheduler but assumes requested wall times; TROUT has
// learned that users overestimate (paper: 15 % mean usage) — the experiment
// measures which error source dominates.
func (e *Experiment) RunSchedulerETA(sampleMax int) (ETAComparison, error) {
	if sampleMax <= 0 {
		sampleMax = 200
	}
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return ETAComparison{}, err
	}
	scale := e.Pipeline.Scale
	if scale < 1 {
		scale = 1
	}
	simCfg := slurmsim.DefaultConfig(scale)

	var simPred, troutPred, actual []float64
	for _, i := range fold.Test {
		if len(simPred) >= sampleMax {
			break
		}
		if e.Data.QueueMinutes[i] < m.Cfg.CutoffMinutes {
			continue
		}
		state, err := forwardStateFromTrace(e.Data, i)
		if err != nil {
			continue
		}
		start, err := slurmsim.EstimateStartTime(simCfg, state)
		if err != nil {
			continue
		}
		eta := float64(start-state.Now) / 60
		if eta < 0 {
			eta = 0
		}
		simPred = append(simPred, eta)
		troutPred = append(troutPred, m.RegressMinutes(e.Data.X[i]))
		actual = append(actual, e.Data.QueueMinutes[i])
	}
	if len(simPred) == 0 {
		return ETAComparison{}, fmt.Errorf("trout: no jobs could be forward-simulated")
	}
	return ETAComparison{
		N:            len(simPred),
		SimMAPE:      metrics.MAPE(simPred, actual),
		TroutMAPE:    metrics.MAPE(troutPred, actual),
		SimPearson:   metrics.Pearson(simPred, actual),
		TroutPearson: metrics.Pearson(troutPred, actual),
	}, nil
}

// forwardStateFromTrace reconstructs the scheduler-visible queue state at
// job i's eligibility instant.
func forwardStateFromTrace(ds *trout.Dataset, i int) (slurmsim.ForwardState, error) {
	target := ds.Jobs[i]
	t := target.Eligible
	state := slurmsim.ForwardState{Now: t, TargetID: target.ID}
	for k := range ds.Jobs {
		j := &ds.Jobs[k]
		switch {
		case j.ID == target.ID:
			// fall through to append as pending below
		case j.Start <= t && t < j.End:
			state.Running = append(state.Running, slurmsim.RunningJob{
				Spec: jobToSpec(j), Elapsed: t - j.Start,
			})
			continue
		case j.Eligible <= t && t < j.Start:
			state.Pending = append(state.Pending, jobToSpec(j))
			continue
		default:
			continue
		}
		state.Pending = append(state.Pending, jobToSpec(j))
	}
	return state, nil
}

// jobToSpec converts an accounting record back into a scheduler request.
func jobToSpec(j *trout.Job) slurmsim.JobSpec {
	return slurmsim.JobSpec{
		ID: j.ID, User: j.User, Partition: j.Partition,
		Submit: j.Submit, ReqCPUs: j.ReqCPUs, ReqMemGB: j.ReqMemGB,
		ReqNodes: j.ReqNodes, ReqGPUs: j.ReqGPUs,
		TimeLimit: j.TimeLimit, QOS: j.QOS,
	}
}

// --- Scheduler-policy ablation: how much the scheduler's own mechanisms
// (EASY backfill, partition-priority preemption) shape the queue-time
// distribution the predictors learn ---

// SchedulerVariant is one scheduler configuration's trace shape and model
// performance.
type SchedulerVariant struct {
	Name          string
	ShortFraction float64 // jobs queueing < 10 min
	MeanQueueMin  float64
	MAPE          float64 // holdout regression MAPE on that trace
	ClassBA       float64
}

// RunSchedulerAblation regenerates the trace under three scheduler
// configurations (full, no backfill, no preemption) and retrains/evaluates
// on each.
func (e *Experiment) RunSchedulerAblation() ([]SchedulerVariant, error) {
	variants := []struct {
		name                     string
		noBackfill, noPreemption bool
	}{
		{"backfill+preemption (default)", false, false},
		{"no backfill", true, false},
		{"no preemption", false, true},
	}
	scale := e.Pipeline.Scale
	if scale < 1 {
		scale = 1
	}
	out := make([]SchedulerVariant, 0, len(variants))
	for _, v := range variants {
		simCfg := slurmsim.DefaultConfig(scale)
		simCfg.DisableBackfill = v.noBackfill
		simCfg.DisablePreemption = v.noPreemption
		specs, err := workload.Generate(workload.DefaultConfig(e.Pipeline.Jobs, e.Pipeline.Seed), &simCfg.Cluster)
		if err != nil {
			return nil, err
		}
		tr, _, err := slurmsim.Run(simCfg, specs)
		if err != nil {
			return nil, err
		}
		opt := e.Pipeline.Features
		if opt.Seed == 0 {
			opt.Seed = e.Pipeline.Seed
		}
		ds, err := livestate.Build(tr, &simCfg.Cluster, opt)
		if err != nil {
			return nil, err
		}
		fold, err := tscv.HoldoutRecent(ds.Len(), 0.2)
		if err != nil {
			return nil, err
		}
		m, err := core.Train(ds, fold.Train, e.Pipeline.Model)
		if err != nil {
			return nil, fmt.Errorf("trout: scheduler variant %q: %w", v.name, err)
		}
		reg := core.EvaluateRegression(m, ds, fold.Test)
		cls := core.EvaluateClassifier(m, ds, fold.Test)
		var meanQ float64
		for i := range tr.Jobs {
			meanQ += tr.Jobs[i].QueueMinutes()
		}
		meanQ /= float64(len(tr.Jobs))
		out = append(out, SchedulerVariant{
			Name:          v.name,
			ShortFraction: tr.ShortQueueFraction(600),
			MeanQueueMin:  meanQ,
			MAPE:          reg.MAPE,
			ClassBA:       cls.BalancedAccuracy(),
		})
	}
	return out, nil
}

// --- Classifier calibration (supporting the paper's claim of "similar
// accuracy on both classes" with a reliability diagram) ---

// CalibrationResult is the classifier's reliability diagram plus ECE.
type CalibrationResult struct {
	Bins []metrics.CalibrationBin
	ECE  float64
	N    int
}

// RunCalibration computes the quick-start/long classifier's reliability
// diagram on the most recent 20 % of jobs.
func (e *Experiment) RunCalibration(bins int) (CalibrationResult, error) {
	if bins <= 0 {
		bins = 10
	}
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return CalibrationResult{}, err
	}
	probs := make([]float64, len(fold.Test))
	labels := make([]bool, len(fold.Test))
	for k, i := range fold.Test {
		probs[k] = m.ClassifyProb(e.Data.X[i])
		labels[k] = e.Data.QueueMinutes[i] >= m.Cfg.CutoffMinutes
	}
	cal := metrics.Calibration(probs, labels, bins)
	return CalibrationResult{
		Bins: cal, ECE: metrics.ExpectedCalibrationError(cal), N: len(fold.Test),
	}, nil
}

// --- Prediction intervals (extension of §V's outlier discussion) ---

// IntervalResult summarizes prediction-interval quality on the holdout.
type IntervalResult struct {
	Taus      []float64
	Coverage  float64 // fraction of actual long-job queue times inside the band
	Nominal   float64 // the band's nominal coverage (hi tau − lo tau)
	MeanWidth float64 // minutes
	N         int
}

// RunIntervals trains an 80 % quantile band (q10–q90) on the holdout
// protocol and measures its empirical coverage — the uncertainty the point
// model cannot express for the paper's "massive outliers".
func (e *Experiment) RunIntervals() (IntervalResult, error) {
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		return IntervalResult{}, err
	}
	taus := []float64{0.1, 0.5, 0.9}
	qm, err := core.TrainQuantiles(e.Data, fold.Train, e.Pipeline.Model, taus)
	if err != nil {
		return IntervalResult{}, err
	}
	cov, width, n := qm.Coverage(e.Data, fold.Test)
	return IntervalResult{
		Taus: taus, Coverage: cov, Nominal: taus[len(taus)-1] - taus[0],
		MeanWidth: width, N: n,
	}, nil
}

// --- SHAP feature attribution (§III: "SHAP values are a method of
// assigning importance to each feature ... features with a SHAP value
// closer to 0 are less impactful and can be removed") ---

// SHAPRow is one feature's global mean-|SHAP| importance.
type SHAPRow struct {
	Feature string
	MeanAbs float64
}

// RunSHAP trains on the holdout protocol and computes Kernel SHAP values
// for a sample of held-out long jobs against a background of training rows,
// returning the global mean-|SHAP| ranking the paper prunes features with.
// explainRows and coalitionSamples bound the (cubic-ish) cost; zeros pick
// defaults of 15 rows and 600 coalitions.
func (e *Experiment) RunSHAP(explainRows, coalitionSamples int) ([]SHAPRow, error) {
	if explainRows <= 0 {
		explainRows = 15
	}
	if coalitionSamples <= 0 {
		coalitionSamples = 600
	}
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return nil, err
	}
	// Background: an even sample of training rows (raw feature space; the
	// model's scaler runs inside the predict closure).
	var background [][]float64
	step := len(fold.Train)/64 + 1
	for i := 0; i < len(fold.Train); i += step {
		background = append(background, e.Data.X[fold.Train[i]])
	}
	predict := func(row []float64) float64 {
		return math.Log1p(m.RegressMinutes(row))
	}
	ex := &shap.Explainer{
		Predict: predict, Background: background,
		Samples: coalitionSamples, Seed: e.Pipeline.Seed + 17,
	}
	var values [][]float64
	for _, i := range fold.Test {
		if len(values) >= explainRows {
			break
		}
		if e.Data.QueueMinutes[i] < m.Cfg.CutoffMinutes {
			continue
		}
		phi, err := ex.Explain(e.Data.X[i])
		if err != nil {
			return nil, err
		}
		values = append(values, phi)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("trout: no long jobs to explain")
	}
	ranked := shap.Rank(features.Names, shap.MeanAbs(values))
	out := make([]SHAPRow, len(ranked))
	for i, r := range ranked {
		out[i] = SHAPRow{Feature: r.Feature, MeanAbs: r.Score}
	}
	return out, nil
}

// --- Per-partition breakdown (§V: partition imbalance "may obfuscate
// unique attributes relating to prediction on these smaller queues") ---

// PartitionScore is one partition's holdout evaluation.
type PartitionScore struct {
	Partition string
	Jobs      int // test jobs in the partition
	LongJobs  int
	MAPE      float64 // regression MAPE on the partition's long jobs
	ClassBA   float64 // classifier balanced accuracy on the partition
}

// RunPartitionBreakdown trains once on the holdout protocol and reports
// per-partition performance, quantifying how much the dominant `shared`
// partition drives the averages.
func (e *Experiment) RunPartitionBreakdown() ([]PartitionScore, error) {
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		return nil, err
	}
	byPart := map[string][]int{}
	for _, i := range fold.Test {
		p := e.Data.Jobs[i].Partition
		byPart[p] = append(byPart[p], i)
	}
	names := make([]string, 0, len(byPart))
	for n := range byPart {
		names = append(names, n)
	}
	sortStrings(names)
	out := make([]PartitionScore, 0, len(names))
	for _, name := range names {
		idx := byPart[name]
		reg := core.EvaluateRegression(m, e.Data, idx)
		cls := core.EvaluateClassifier(m, e.Data, idx)
		out = append(out, PartitionScore{
			Partition: name, Jobs: len(idx), LongJobs: reg.N,
			MAPE: reg.MAPE, ClassBA: cls.BalancedAccuracy(),
		})
	}
	return out, nil
}

func sortStrings(s []string) {
	for i := range s {
		for k := i + 1; k < len(s); k++ {
			if s[k] < s[i] {
				s[i], s[k] = s[k], s[i]
			}
		}
	}
}

// --- Runtime-source ablation (§II/§V: the runtime model is "basic";
// "incorporating a more robust runtime prediction model ... could be
// explored further") ---

// RuntimeSourceResult is one runtime-feature mode's holdout evaluation.
type RuntimeSourceResult struct {
	Source string
	MAPE   float64
	N      int
}

// RunRuntimeSourceAblation rebuilds the features with the Pred-Runtime
// columns filled by (a) the random forest (the paper's design), (b) a
// perfect oracle (what a flawless runtime model would buy), and (c) the raw
// requested limit (no model at all), then retrains and scores each.
func (e *Experiment) RunRuntimeSourceAblation() ([]RuntimeSourceResult, error) {
	out := make([]RuntimeSourceResult, 0, 3)
	for _, source := range []string{"forest", "oracle", "requested"} {
		opt := e.Pipeline.Features
		opt.RuntimeSource = source
		if opt.Seed == 0 {
			opt.Seed = e.Pipeline.Seed
		}
		ds, err := livestate.Build(e.Trace, e.Cluster, opt)
		if err != nil {
			return nil, fmt.Errorf("trout: runtime source %q: %w", source, err)
		}
		fold, err := tscv.HoldoutRecent(ds.Len(), 0.2)
		if err != nil {
			return nil, err
		}
		m, err := core.Train(ds, fold.Train, e.Pipeline.Model)
		if err != nil {
			return nil, err
		}
		ev := core.EvaluateRegression(m, ds, fold.Test)
		out = append(out, RuntimeSourceResult{Source: source, MAPE: ev.MAPE, N: ev.N})
	}
	return out, nil
}
