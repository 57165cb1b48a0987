// Quickstart: the README walk-through. Synthesizes a small Anvil-like
// trace, engineers the Table II features, trains the hierarchical TROUT
// model, evaluates it on the most recent 20 % of jobs, and prints
// Algorithm 1 predictions for a few held-out jobs.
package main

import (
	"fmt"
	"log"

	trout "repro"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)

	// 1. Synthesize a workload and simulate the cluster scheduler.
	p := trout.DefaultPipeline(10000, 42)
	p.Model.Classifier.Epochs = 10
	p.Model.Regressor.Epochs = 20
	fmt.Println("generating trace (10k jobs through the Slurm-like simulator)...")
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d jobs, %.1f%% queued under 10 minutes\n",
		len(tr.Jobs), 100*tr.ShortQueueFraction(600))

	// 2. Engineer the paper's 33 features: the trace replayed through the
	// live-state engine, each job's row taken at its eligibility instant.
	fmt.Println("engineering features...")
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Train the hierarchical model (classifier + regressor).
	fmt.Println("training TROUT...")
	m, fold, err := trout.TrainHoldout(ds, p.Model, 0.2)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Evaluate on the most recent 20 % of jobs.
	cls := core.EvaluateClassifier(m, ds, fold.Test)
	reg := core.EvaluateRegression(m, ds, fold.Test)
	fmt.Printf("classifier: %.2f%% accuracy (balanced %.2f%%) on %d held-out jobs\n",
		100*cls.Accuracy(), 100*cls.BalancedAccuracy(), cls.N)
	fmt.Printf("regressor:  %.2f%% MAPE, Pearson r %.3f on %d long jobs\n",
		reg.MAPE, reg.Pearson, reg.N)

	// 5. Algorithm 1 predictions for a few held-out jobs.
	fmt.Println("\nsample predictions (Algorithm 1):")
	shown := 0
	for _, i := range fold.Test {
		if shown >= 3 && ds.QueueMinutes[i] < m.Cfg.CutoffMinutes {
			continue // after 3 quick jobs, look for a long one
		}
		pred := m.Predict(ds.X[i])
		fmt.Printf("  job %-6d (actual %7.1f min): %s\n",
			ds.Jobs[i].ID, ds.QueueMinutes[i], pred.Message(m.Cfg.CutoffMinutes))
		shown++
		if shown >= 6 {
			break
		}
	}
}
