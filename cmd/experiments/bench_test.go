// Benchmarks regenerating each table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). These run the experiment
// runners on a reduced trace so `go test -bench=.` completes on a laptop;
// `experiments -jobs 60000` produces the full-size numbers recorded in
// EXPERIMENTS.md.
package main

import (
	"sync"
	"testing"

	trout "repro"
	"repro/internal/core"
	"repro/internal/slurmsim"
	"repro/internal/trace"
	"repro/internal/tscv"
	"repro/internal/workload"
)

// benchPipeline is sized for benchmarking: big enough for every fold to
// hold long jobs, small enough to iterate.
func benchPipeline() trout.PipelineConfig {
	p := trout.DefaultPipeline(6000, 5)
	p.Model.Classifier.Epochs = 5
	p.Model.Classifier.Hidden = []int{32, 16}
	p.Model.Regressor.Epochs = 8
	p.Model.Regressor.Hidden = []int{64, 32, 16}
	p.Model.Seed = 5
	p.Features.RuntimeTrees = 20
	return p
}

var (
	benchOnce sync.Once
	benchExp  *Experiment
	benchErr  error
)

func benchExperiment(b *testing.B) *Experiment {
	b.Helper()
	benchOnce.Do(func() {
		benchExp, benchErr = NewExperiment(benchPipeline())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExp
}

// BenchmarkTable1Stats regenerates Table I (job statistics) from the trace.
func BenchmarkTable1Stats(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one := e.RunTableOne()
		if one.RequestedHours.Count == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2FeatureBuild regenerates the Table II feature matrix
// (the engine replay over the full trace).
func BenchmarkTable2FeatureBuild(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := e.Pipeline.BuildDataset(e.Trace, e.Cluster)
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() != len(e.Trace.Jobs) {
			b.Fatal("short dataset")
		}
	}
}

// BenchmarkFig2QueueDensity regenerates the queue-time density histogram.
func BenchmarkFig2QueueDensity(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(e.RunFigTwo(24)) != 24 {
			b.Fatal("bad histogram")
		}
	}
}

// BenchmarkFig3TimeSeriesSplit regenerates the CV fold layout.
func BenchmarkFig3TimeSeriesSplit(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunFigThree(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ScatterFold4 trains the model on fold 4 and produces the
// predicted-vs-actual scatter.
func BenchmarkFig4ScatterFold4(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := e.RunScatter(4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc.Pearson, "pearson")
	}
}

// BenchmarkFig5ScatterFold5 is the paper's r=0.7532 figure on fold 5.
func BenchmarkFig5ScatterFold5(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := e.RunScatter(5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc.Pearson, "pearson")
	}
}

func benchComparison(b *testing.B, fold int, metric string) {
	e := benchExperiment(b)
	cmp := CompareConfig{GBDTRounds: 30, ForestTrees: 30, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := e.RunComparison(fold, cmp)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scores {
			if s.Model == ModelNeuralNet {
				switch metric {
				case "mape":
					b.ReportMetric(s.MAPE, "nn-mape-%")
				case "within":
					b.ReportMetric(100*s.Within100, "nn-within100-%")
				}
			}
		}
	}
}

// BenchmarkFig6ModelComparison: average percent error by model, fold 4.
func BenchmarkFig6ModelComparison(b *testing.B) { benchComparison(b, 4, "mape") }

// BenchmarkFig7ModelComparisonFold5: average percent error by model, fold 5.
func BenchmarkFig7ModelComparisonFold5(b *testing.B) { benchComparison(b, 5, "mape") }

// BenchmarkFig8Within100Fold4: % of predictions within 100% error, fold 4.
func BenchmarkFig8Within100Fold4(b *testing.B) { benchComparison(b, 4, "within") }

// BenchmarkFig9Within100Fold5: % of predictions within 100% error, fold 5.
func BenchmarkFig9Within100Fold5(b *testing.B) { benchComparison(b, 5, "within") }

// BenchmarkClassifierAccuracy reproduces the §IV classifier evaluation
// (paper: 90.48 % on the most recent jobs).
func BenchmarkClassifierAccuracy(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RunClassifier()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Accuracy, "accuracy-%")
	}
}

// BenchmarkRegressionMAPE reproduces the §IV per-fold regression MAPE
// (paper: mean 97.57 % over the last three folds).
func BenchmarkRegressionMAPE(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, lastThree, err := e.RunRegressionFolds()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lastThree, "mape-%")
	}
}

// BenchmarkAblationCutoff re-trains at the paper's 5/10/30-minute cutoffs.
func BenchmarkAblationCutoff(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunCutoffAblation([]float64{5, 10, 30}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLeakage contrasts time-ordered and shuffled splits.
func BenchmarkAblationLeakage(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.RunLeakageAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "leak-ratio")
	}
}

// BenchmarkAblationSMOTE contrasts balanced and unbalanced classifiers.
func BenchmarkAblationSMOTE(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunSMOTEAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationActivation sweeps ELU/ReLU/Tanh/ELU+BatchNorm.
func BenchmarkAblationActivation(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunActivationAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScaling sweeps log/min-max/standard/Box-Cox/none.
func BenchmarkAblationScaling(b *testing.B) {
	e := benchExperiment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunScalingAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceLatency measures single-job Algorithm 1 latency — the
// paper's CLI answers "in a few seconds" on one EPYC core; the model itself
// is microseconds.
func BenchmarkInferenceLatency(b *testing.B) {
	e := benchExperiment(b)
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Train(e.Data, fold.Train, e.Pipeline.Model)
	if err != nil {
		b.Fatal(err)
	}
	row := e.Data.X[fold.Test[0]]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(row)
	}
}

// BenchmarkSnapshotPredict measures the full deployment path: reconstruct
// the queue snapshot from the trace and predict (what cmd/trout does).
func BenchmarkSnapshotPredict(b *testing.B) {
	e := benchExperiment(b)
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Train(e.Data, fold.Train, e.Pipeline.Model)
	if err != nil {
		b.Fatal(err)
	}
	bundle, err := trout.NewBundle(m, e.Data, e.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	jobID := e.Data.Jobs[fold.Test[len(fold.Test)/2]].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := trout.SnapshotFromTrace(e.Trace, jobID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bundle.PredictSnapshot(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures the cluster simulator's event rate.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cluster := slurmsim.AnvilLike(1)
	cfg := workload.DefaultConfig(5000, 6)
	specs, err := workload.Generate(cfg, &cluster)
	if err != nil {
		b.Fatal(err)
	}
	sim := slurmsim.DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := slurmsim.Run(sim, specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs)), "jobs/op")
}

// BenchmarkRuntimePredictor measures the runtime random forest on one job.
func BenchmarkRuntimePredictor(b *testing.B) {
	e := benchExperiment(b)
	tot := e.Cluster.Totals("shared")
	j := &trace.Job{
		ID: 1, Partition: "shared", ReqCPUs: 16, ReqMemGB: 32, ReqNodes: 1,
		TimeLimit: 7200, Priority: 5000,
	}
	rp := e.Data.Runtime
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = rp.PredictSeconds(j, tot)
	}
	_ = sink
}
