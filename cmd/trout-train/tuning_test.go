package main

import (
	"math"
	"strings"
	"testing"

	trout "repro"
	"repro/internal/core"
)

func TestTuneRegressor(t *testing.T) {
	p := trout.DefaultPipeline(7000, 21)
	p.Model.Classifier.Hidden = []int{32, 16}
	p.Model.Seed = 21
	p.Features.RuntimeTrees = 20
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneRegressor(ds, p.Model, TuneConfig{Trials: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 6 {
		t.Fatalf("%d trials", res.Trials)
	}
	if res.Pruned == 0 {
		t.Fatal("halving pruned nothing")
	}
	if math.IsNaN(res.BestMAPE) || res.BestMAPE <= 0 {
		t.Fatalf("best MAPE %v", res.BestMAPE)
	}
	if len(res.Best.Regressor.Hidden) < 2 || len(res.Best.Regressor.Hidden) > 4 {
		t.Fatalf("tuned hidden stack %v", res.Best.Regressor.Hidden)
	}
	// Tuned config must train.
	tuned := res.Best
	tuned.Regressor.Epochs = 2
	tuned.Classifier.Epochs = 2
	if _, err := core.Train(ds, seqIdx(ds.Len()*8/10), tuned); err != nil {
		t.Fatal(err)
	}
	desc := DescribeConfig(res.Best)
	if !strings.Contains(desc, "regressor") {
		t.Fatalf("DescribeConfig = %q", desc)
	}
}

func seqIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
