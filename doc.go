// Package trout is a from-scratch Go reproduction of "A Hierarchical Deep
// Learning Approach for Predicting Job Queue Times in HPC Systems"
// (SC 2024). It predicts how long a Slurm job will wait in the queue using
// a two-stage model: a binary classifier for quick-start jobs (< 10 minutes)
// and a regression network for the rest.
//
// The package is the public facade over the substrates in internal/: an
// event-driven Slurm-like cluster simulator and synthetic workload generator
// (standing in for the proprietary Anvil accounting trace), feature
// engineering by replaying a trace through the live-state engine the
// daemon serves from, a stdlib-only neural-network stack, SMOTE balancing,
// gradient-boosted/random-forest/kNN baselines, time-series cross-validation
// and hyperparameter search.
//
// The typical flow:
//
//	p := trout.DefaultPipeline(60000, 1)
//	tr, cluster, _ := p.GenerateTrace()
//	ds, _ := p.BuildDataset(tr, cluster)
//	m, fold, _ := trout.TrainHoldout(ds, p.Model, 0.2)
//	pred := m.Predict(ds.X[fold.Test[0]])
//	fmt.Println(pred.Message(10))
//
// Every table and figure of the paper's evaluation can be regenerated with
// the experiment runners in this package (see cmd/experiments and
// EXPERIMENTS.md).
package trout
