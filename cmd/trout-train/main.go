// Command trout-train builds the Table II features from an accounting trace
// (or generates a synthetic one), trains the hierarchical TROUT model, and
// writes a deployment bundle for the trout CLI. It prints the holdout
// evaluation (classifier accuracy and regression MAPE/Pearson) on the most
// recent 20 % of jobs.
//
// Usage:
//
//	trout-train -trace trace.csv -o trout.bundle
//	trout-train -jobs 60000 -seed 1 -o trout.bundle   # synthesize first
package main

import (
	"flag"
	"fmt"
	"log"

	trout "repro"
	"repro/internal/core"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trout-train: ")
	var (
		tracePath = flag.String("trace", "", "input trace (csv or jsonl); empty = synthesize")
		jobs      = flag.Int("jobs", 60000, "jobs to synthesize when -trace is empty")
		seed      = flag.Int64("seed", 1, "random seed")
		scale     = flag.Int("scale", 1, "cluster scale factor")
		out       = flag.String("o", "trout.bundle", "output bundle path")
		cutoff    = flag.Float64("cutoff", 10, "quick-start cutoff in minutes")
		epochs    = flag.Int("epochs", 0, "override training epochs for both heads (0 = defaults)")
		tune      = flag.Int("tune", 0, "run N hyperparameter-search trials before training (0 = off)")
	)
	flag.Parse()

	p := trout.DefaultPipeline(*jobs, *seed)
	p.Scale = *scale
	p.Model.CutoffMinutes = *cutoff
	p.Model.Seed = *seed
	if *epochs > 0 {
		p.Model.Classifier.Epochs = *epochs
		p.Model.Regressor.Epochs = *epochs
	}

	var (
		tr      *trout.Trace
		cluster *trout.ClusterSpec
		err     error
	)
	if *tracePath == "" {
		fmt.Printf("synthesizing %d jobs (seed %d)...\n", *jobs, *seed)
		tr, cluster, err = p.GenerateTrace()
	} else {
		tr, err = trace.ReadFile(*tracePath)
		// Traces are replayed against the same cluster shape they were
		// generated on.
		c := trout.AnvilLikeCluster(*scale)
		cluster = &c
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("engineering features for %d jobs...\n", len(tr.Jobs))
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		log.Fatal(err)
	}

	if *tune > 0 {
		fmt.Printf("tuning regressor hyperparameters (%d trials, successive halving)...\n", *tune)
		res, err := TuneRegressor(ds, p.Model, TuneConfig{
			Trials: *tune, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  best search MAPE %.2f%% — %s\n", res.BestMAPE, DescribeConfig(res.Best))
		p.Model = res.Best
	}

	fmt.Println("training hierarchical model...")
	m, fold, err := trout.TrainHoldout(ds, p.Model, 0.2)
	if err != nil {
		log.Fatal(err)
	}

	cls := core.EvaluateClassifier(m, ds, fold.Test)
	reg := core.EvaluateRegression(m, ds, fold.Test)
	fmt.Printf("holdout classifier: accuracy %.2f%%  balanced %.2f%%  (n=%d)\n",
		100*cls.Accuracy(), 100*cls.BalancedAccuracy(), cls.N)
	fmt.Printf("holdout regression: MAPE %.2f%%  Pearson r %.4f  within-100%% %.2f%%  (n=%d long jobs)\n",
		reg.MAPE, reg.Pearson, 100*reg.Within100, reg.N)

	b, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		log.Fatal(err)
	}
	if err := b.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote bundle to %s\n", *out)
}
