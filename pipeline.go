package trout

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/slurmsim"
	"repro/internal/trace"
	"repro/internal/tscv"
	"repro/internal/workload"
)

// Re-exported types so downstream users only import this package.
type (
	// Trace is an ordered collection of Slurm-style accounting records.
	Trace = trace.Trace
	// Job is one accounting record.
	Job = trace.Job
	// ClusterSpec describes the simulated machine.
	ClusterSpec = slurmsim.ClusterSpec
	// Dataset is the engineered Table II feature matrix.
	Dataset = features.Dataset
	// Model is a trained hierarchical TROUT bundle.
	Model = core.Model
	// ModelConfig configures TROUT training.
	ModelConfig = core.Config
	// Prediction is the Algorithm 1 output for one job.
	Prediction = core.Prediction
	// Fold is one train/test index split.
	Fold = tscv.Fold
)

// FeatureNames lists the 33 model features in column order.
var FeatureNames = features.Names

// AnvilLikeCluster returns the scaled-down Anvil-shaped cluster the default
// pipeline simulates (seven partitions over shared CPU, high-memory and
// isolated GPU pools).
func AnvilLikeCluster(scale int) ClusterSpec { return slurmsim.AnvilLike(scale) }

// PipelineConfig wires the full reproduction pipeline: synthesize a
// workload, push it through the cluster simulator, engineer features, and
// train/evaluate the hierarchical model.
type PipelineConfig struct {
	// Jobs is the trace size; Seed drives every stochastic stage.
	Jobs int
	Seed int64
	// Scale sizes the AnvilLike cluster (1 = 36 nodes).
	Scale int
	// Workload overrides the synthesized job stream (nil = default
	// calibrated to the paper's Table I statistics).
	Workload *workload.Config
	// Sim overrides the scheduler configuration.
	Sim *slurmsim.Config
	// Features overrides feature engineering options.
	Features features.Options
	// Model configures TROUT training.
	Model ModelConfig
	// Folds and TestFraction configure time-series cross-validation
	// (paper: 5 folds, test = 1/6).
	Folds        int
	TestFraction float64
}

// DefaultPipeline returns the paper-shaped pipeline at the given trace size.
func DefaultPipeline(jobs int, seed int64) PipelineConfig {
	return PipelineConfig{
		Jobs: jobs, Seed: seed, Scale: 1,
		Features:     features.Options{Seed: seed},
		Model:        core.DefaultConfig(),
		Folds:        5,
		TestFraction: 1.0 / 6.0,
	}
}

// GenerateTrace synthesizes the workload and simulates it, returning the
// completed-job trace and the cluster it ran on.
func (p *PipelineConfig) GenerateTrace() (*Trace, *ClusterSpec, error) {
	if p.Jobs <= 0 {
		return nil, nil, fmt.Errorf("trout: pipeline needs Jobs > 0")
	}
	scale := p.Scale
	if scale < 1 {
		scale = 1
	}
	simCfg := slurmsim.DefaultConfig(scale)
	if p.Sim != nil {
		simCfg = *p.Sim
	}
	wl := workload.DefaultConfig(p.Jobs, p.Seed)
	if p.Workload != nil {
		wl = *p.Workload
	}
	specs, err := workload.Generate(wl, &simCfg.Cluster)
	if err != nil {
		return nil, nil, err
	}
	tr, _, err := slurmsim.Run(simCfg, specs)
	if err != nil {
		return nil, nil, err
	}
	cluster := simCfg.Cluster
	return tr, &cluster, nil
}

// BuildDataset engineers the Table II features for a trace by replaying it
// through the live-state engine (livestate.Build).
func (p *PipelineConfig) BuildDataset(tr *Trace, cluster *ClusterSpec) (*Dataset, error) {
	opt := p.Features
	if opt.Seed == 0 {
		opt.Seed = p.Seed
	}
	return livestate.Build(tr, cluster, opt)
}

// TrainHoldout trains on all but the most recent testFraction of the
// dataset (the paper's classifier evaluation protocol) and returns the
// model plus the holdout fold.
func TrainHoldout(ds *Dataset, cfg ModelConfig, testFraction float64) (*Model, Fold, error) {
	fold, err := tscv.HoldoutRecent(ds.Len(), testFraction)
	if err != nil {
		return nil, Fold{}, err
	}
	m, err := core.Train(ds, fold.Train, cfg)
	return m, fold, err
}

// FoldMetrics is one cross-validation fold's regression scores.
type FoldMetrics struct {
	Fold      int
	N         int     // long test jobs evaluated
	MAPE      float64 // percent
	Pearson   float64
	Within100 float64 // fraction within 100 % error
	MAE       float64 // minutes
}

// CrossValidate trains and evaluates the hierarchical model under
// time-series CV, returning per-fold regression metrics (the protocol
// behind the paper's §IV fold numbers).
func CrossValidate(ds *Dataset, cfg ModelConfig, folds int, testFraction float64) ([]FoldMetrics, error) {
	splits, err := tscv.Split(ds.Len(), folds, testFraction)
	if err != nil {
		return nil, err
	}
	out := make([]FoldMetrics, 0, len(splits))
	for fi, fold := range splits {
		m, err := core.Train(ds, fold.Train, cfg)
		if err != nil {
			return nil, fmt.Errorf("trout: fold %d: %w", fi+1, err)
		}
		ev := core.EvaluateRegression(m, ds, fold.Test)
		out = append(out, FoldMetrics{
			Fold: fi + 1, N: ev.N, MAPE: ev.MAPE,
			Pearson: ev.Pearson, Within100: ev.Within100, MAE: ev.MAE,
		})
	}
	return out, nil
}
