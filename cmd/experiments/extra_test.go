package main

import (
	"math"
	"testing"

	trout "repro"
	"repro/internal/core"
	"repro/internal/tscv"
)

func TestErrorByBin(t *testing.T) {
	e := sharedExperiment(t)
	bins, err := e.RunErrorByBin()
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("no bins")
	}
	total := 0
	for _, b := range bins {
		if b.HiMinutes != b.LoMinutes*10 {
			t.Fatalf("bad decade [%v, %v)", b.LoMinutes, b.HiMinutes)
		}
		if math.IsNaN(b.MAPE) {
			t.Fatal("NaN bin MAPE")
		}
		total += b.N
	}
	if total == 0 {
		t.Fatal("bins cover no jobs")
	}
}

func TestFeatureGroupsCoverAllColumns(t *testing.T) {
	seen := map[int]bool{}
	for _, g := range FeatureGroups() {
		if len(g.Columns) == 0 {
			t.Fatalf("group %q resolves no columns", g.Name)
		}
		for _, c := range g.Columns {
			if seen[c] {
				t.Fatalf("column %d in two groups", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(trout.FeatureNames) {
		t.Fatalf("groups cover %d of %d columns", len(seen), len(trout.FeatureNames))
	}
}

func TestFeatureGroupAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunFeatureGroupAblation()
	if err != nil {
		t.Fatal(err)
	}
	// Full model + 7 groups.
	if len(res) != 8 {
		t.Fatalf("%d ablation rows", len(res))
	}
	if res[0].Dropped != "none" {
		t.Fatal("first row must be the full model")
	}
	for _, r := range res {
		if math.IsNaN(r.MAPE) || r.N == 0 {
			t.Fatalf("degenerate ablation row %+v", r)
		}
	}
}

func TestOnlineAdaptation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunOnlineAdaptation(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no test jobs")
	}
	if math.IsNaN(res.StaleMAPE) || math.IsNaN(res.UpdatedMAPE) {
		t.Fatal("NaN MAPE")
	}
	// Fine-tuning must actually change the model.
	if res.StaleMAPE == res.UpdatedMAPE && res.StaleClassBA == res.UpdatedClassBA {
		t.Fatal("ContinueTraining changed nothing")
	}
}

func TestPartitionBreakdown(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunPartitionBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 3 {
		t.Fatalf("only %d partitions in breakdown", len(res))
	}
	total := 0
	for _, r := range res {
		total += r.Jobs
		if r.ClassBA < 0 || r.ClassBA > 1 {
			t.Fatalf("bad balanced accuracy %v", r.ClassBA)
		}
	}
	// Partition rows must cover the whole holdout.
	if total != e.Data.Len()/5 {
		t.Fatalf("breakdown covers %d jobs, holdout is %d", total, e.Data.Len()/5)
	}
	// Sorted by name.
	for i := 1; i < len(res); i++ {
		if res[i].Partition < res[i-1].Partition {
			t.Fatal("breakdown not sorted")
		}
	}
}

func TestRuntimeSourceAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunRuntimeSourceAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d sources", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Source] = true
		if math.IsNaN(r.MAPE) || r.N == 0 {
			t.Fatalf("degenerate result %+v", r)
		}
	}
	for _, want := range []string{"forest", "oracle", "requested"} {
		if !names[want] {
			t.Fatalf("missing source %s", want)
		}
	}
}

func TestRunSHAP(t *testing.T) {
	e := sharedExperiment(t)
	rows, err := e.RunSHAP(5, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(trout.FeatureNames) {
		t.Fatalf("%d SHAP rows", len(rows))
	}
	for i, r := range rows {
		if math.IsNaN(r.MeanAbs) || r.MeanAbs < 0 {
			t.Fatalf("bad SHAP score %+v", r)
		}
		if i > 0 && r.MeanAbs > rows[i-1].MeanAbs {
			t.Fatal("SHAP rows not sorted")
		}
	}
	// The constant partition features can't matter more than everything
	// else combined; at minimum the top feature must have nonzero score.
	if rows[0].MeanAbs == 0 {
		t.Fatal("all SHAP scores are zero")
	}
}

func TestRunIntervals(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunIntervals()
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no long jobs")
	}
	if res.Coverage < 0 || res.Coverage > 1 {
		t.Fatalf("coverage %v", res.Coverage)
	}
	if res.MeanWidth <= 0 {
		t.Fatalf("width %v", res.MeanWidth)
	}
	if res.Nominal != 0.8 {
		t.Fatalf("nominal %v", res.Nominal)
	}
}

func TestTrainQuantileModelPublic(t *testing.T) {
	e := sharedExperiment(t)
	fold, err := tscv.HoldoutRecent(e.Data.Len(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Pipeline.Model
	cfg.Regressor.Epochs = 5
	qm, err := core.TrainQuantiles(e.Data, fold.Train, cfg, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	iv := qm.Interval(e.Data.X[fold.Test[0]])
	if len(iv) != 2 || iv[0] > iv[1] {
		t.Fatalf("interval %v", iv)
	}
}

func TestRunCalibration(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunCalibration(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bins) != 10 || res.N == 0 {
		t.Fatalf("calibration %d bins n=%d", len(res.Bins), res.N)
	}
	if res.ECE < 0 || res.ECE > 1 {
		t.Fatalf("ECE %v", res.ECE)
	}
	total := 0
	for _, b := range res.Bins {
		total += b.Count
	}
	if total != res.N {
		t.Fatalf("bins cover %d of %d", total, res.N)
	}
}

func TestRunTransfer(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunTransfer()
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no foreign test jobs")
	}
	for _, v := range []float64{res.SourceMAPE, res.ZeroShotMAPE, res.RetrainedMAPE} {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("degenerate MAPE in %+v", res)
		}
	}
	for _, v := range []float64{res.SourceBA, res.ZeroShotBA, res.RetrainedBA} {
		if v < 0 || v > 1 {
			t.Fatalf("bad balanced accuracy in %+v", res)
		}
	}
	// Retraining on local history should not be worse than zero-shot on
	// the classifier (the paper's central transfer claim). Allow slack
	// for small-sample noise.
	if res.RetrainedBA < res.ZeroShotBA-0.1 {
		t.Fatalf("retrained classifier (%.3f) much worse than zero-shot (%.3f)",
			res.RetrainedBA, res.ZeroShotBA)
	}
}

func TestRunSchedulerAblation(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunSchedulerAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d variants", len(res))
	}
	for _, r := range res {
		if r.ShortFraction <= 0 || r.ShortFraction > 1 {
			t.Fatalf("short fraction %v for %s", r.ShortFraction, r.Name)
		}
		if math.IsNaN(r.MAPE) || r.MeanQueueMin < 0 {
			t.Fatalf("degenerate variant %+v", r)
		}
	}
	// Removing backfill cannot make queues shorter on average.
	if res[1].MeanQueueMin < res[0].MeanQueueMin*0.8 {
		t.Fatalf("no-backfill mean queue %.1f much below default %.1f",
			res[1].MeanQueueMin, res[0].MeanQueueMin)
	}
}

func TestRunSchedulerETA(t *testing.T) {
	e := sharedExperiment(t)
	res, err := e.RunSchedulerETA(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no jobs simulated")
	}
	if math.IsNaN(res.SimMAPE) || math.IsNaN(res.TroutMAPE) {
		t.Fatalf("NaN in %+v", res)
	}
	if res.SimMAPE <= 0 {
		t.Fatalf("simulation MAPE %v", res.SimMAPE)
	}
}
