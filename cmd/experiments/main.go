// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate, printing paper-format rows. The
// recorded outputs live in EXPERIMENTS.md.
//
// Usage:
//
//	experiments -run all -jobs 60000 -seed 1
//	experiments -run fig6,fig8 -jobs 30000
//
// Experiment names: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// classifier regression cutoff leakage smote activation scaling shap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	trout "repro"
)

var allExperiments = []string{
	"table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "classifier", "regression", "cutoff", "leakage",
	"smote", "activation", "scaling", "shap", "errorbybin",
	"featuregroups", "online", "partitions", "runtimesource", "intervals",
	"calibration", "transfer", "scheduler", "simeta",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		run   = flag.String("run", "all", "comma-separated experiment names or 'all'")
		jobs  = flag.Int("jobs", 60000, "trace size")
		seed  = flag.Int64("seed", 1, "random seed")
		scale = flag.Int("scale", 1, "cluster scale")
	)
	flag.Parse()

	selected := map[string]bool{}
	if *run == "all" {
		for _, e := range allExperiments {
			selected[e] = true
		}
	} else {
		for _, e := range strings.Split(*run, ",") {
			selected[strings.TrimSpace(e)] = true
		}
	}

	p := trout.DefaultPipeline(*jobs, *seed)
	p.Scale = *scale
	p.Model.Seed = *seed

	fmt.Printf("== pipeline: %d jobs, seed %d, scale %d ==\n", *jobs, *seed, *scale)
	t0 := time.Now()
	e, err := trout.NewExperiment(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace + features ready in %v\n\n", time.Since(t0).Round(time.Millisecond))

	type runner struct {
		name string
		fn   func(*trout.Experiment) error
	}
	runners := []runner{
		{"table1", runTable1}, {"table2", runTable2},
		{"fig2", runFig2}, {"fig3", runFig3},
		{"fig4", runFig4}, {"fig5", runFig5},
		{"fig6", runFig6}, {"fig7", runFig7},
		{"fig8", runFig8}, {"fig9", runFig9},
		{"classifier", runClassifier}, {"regression", runRegression},
		{"cutoff", runCutoff}, {"leakage", runLeakage},
		{"smote", runSMOTE}, {"activation", runActivation},
		{"scaling", runScaling},
		{"errorbybin", runErrorByBin}, {"featuregroups", runFeatureGroups},
		{"online", runOnline}, {"partitions", runPartitions},
		{"runtimesource", runRuntimeSource}, {"shap", runSHAP},
		{"intervals", runIntervals}, {"calibration", runCalibration},
		{"transfer", runTransfer}, {"scheduler", runScheduler},
		{"simeta", runSimETA},
	}
	for _, r := range runners {
		if !selected[r.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("---- %s ----\n", r.name)
		if err := r.fn(e); err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Printf("(%s in %v)\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
}

func runTable1(e *trout.Experiment) error {
	one := e.RunTableOne()
	fmt.Println("Table I — historic job statistics (paper: req 12.55 h mean / 4 h median; runtime 1.9 h mean; 87% short; 68.95% shared; 15% wall-time usage)")
	one.Print(os.Stdout)
	return nil
}

func runTable2(e *trout.Experiment) error {
	fmt.Println("Table II — engineered features (33 columns):")
	fmt.Printf("%-28s %12s %12s %12s %12s\n", "Feature", "Max", "Mean", "Median", "StdDev")
	for _, r := range e.RunTableTwo() {
		fmt.Printf("%-28s %12.2f %12.2f %12.2f %12.2f\n", r.Name, r.Max, r.Mean, r.Median, r.StdDev)
	}
	return nil
}

func runFig2(e *trout.Experiment) error {
	fmt.Println("Fig 2 — queue-time density (log-spaced bins, minutes):")
	bins := e.RunFigTwo(24)
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	for _, b := range bins {
		bar := strings.Repeat("#", int(60*float64(b.Count)/float64(total)+0.5))
		fmt.Printf("[%9.2f, %9.2f) %7d %s\n", b.Lo, b.Hi, b.Count, bar)
	}
	return nil
}

func runFig3(e *trout.Experiment) error {
	fmt.Println("Fig 3 — time-series CV layout (5 folds, test = 1/6):")
	splits, err := e.RunFigThree()
	if err != nil {
		return err
	}
	for _, s := range splits {
		fmt.Printf("fold %d: train [%6d, %6d)  test [%6d, %6d)\n",
			s.Fold, s.TrainStart, s.TrainEnd, s.TestStart, s.TestEnd)
	}
	return nil
}

func runScatterFig(e *trout.Experiment, fold int, paperNote string) error {
	sc, err := e.RunScatter(fold)
	if err != nil {
		return err
	}
	fmt.Printf("fold %d long-job scatter: n=%d  Pearson r=%.4f  MAPE=%.2f%%  (%s)\n",
		sc.Fold, sc.N, sc.Pearson, sc.MAPE, paperNote)
	// Print a compact 2-D density: log-binned actual vs predicted.
	fmt.Println("  actual(min) -> mean predicted(min) [count]")
	type bucket struct {
		sum   float64
		count int
	}
	byDecade := map[int]*bucket{}
	for i, a := range sc.Actual {
		d := 0
		for v := a; v >= 10; v /= 10 {
			d++
		}
		b := byDecade[d]
		if b == nil {
			b = &bucket{}
			byDecade[d] = b
		}
		b.sum += sc.Pred[i]
		b.count++
	}
	var ds []int
	for d := range byDecade {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		b := byDecade[d]
		lo := 1.0
		for i := 0; i < d; i++ {
			lo *= 10
		}
		fmt.Printf("  [%8.0f, %8.0f): mean pred %10.1f  [n=%d]\n", lo, lo*10, b.sum/float64(b.count), b.count)
	}
	return nil
}

func runFig4(e *trout.Experiment) error {
	fmt.Println("Fig 4 — predicted vs actual, fold 4 (paper: visibly linear trend):")
	return runScatterFig(e, 4, "paper fold 4: linear trend")
}

func runFig5(e *trout.Experiment) error {
	fmt.Println("Fig 5 — predicted vs actual, fold 5 (paper: r = 0.7532):")
	return runScatterFig(e, 5, "paper fold 5: r = 0.7532")
}

func runComparisonFig(e *trout.Experiment, fold int, metric string) error {
	scores, err := e.RunComparison(fold, trout.CompareConfig{Seed: e.Pipeline.Seed})
	if err != nil {
		return err
	}
	for _, s := range scores {
		switch metric {
		case "mape":
			fmt.Printf("  %-18s avg percent error %8.2f%%  (n=%d)\n", s.Model, s.MAPE, s.N)
		case "within":
			fmt.Printf("  %-18s within 100%% error %7.2f%%  (n=%d)\n", s.Model, 100*s.Within100, s.N)
		}
	}
	return nil
}

func runFig6(e *trout.Experiment) error {
	fmt.Println("Fig 6 — average percent error by model, fold 4 (paper: NN lowest):")
	return runComparisonFig(e, 4, "mape")
}

func runFig7(e *trout.Experiment) error {
	fmt.Println("Fig 7 — average percent error by model, fold 5 (paper: NN lowest):")
	return runComparisonFig(e, 5, "mape")
}

func runFig8(e *trout.Experiment) error {
	fmt.Println("Fig 8 — % predictions within 100% error, fold 4 (paper: NN highest):")
	return runComparisonFig(e, 4, "within")
}

func runFig9(e *trout.Experiment) error {
	fmt.Println("Fig 9 — % predictions within 100% error, fold 5 (paper: NN highest):")
	return runComparisonFig(e, 5, "within")
}

func runClassifier(e *trout.Experiment) error {
	res, err := e.RunClassifier()
	if err != nil {
		return err
	}
	fmt.Printf("classifier on most recent 20%% (paper: 90.48%%, similar per-class): accuracy %.2f%%  balanced %.2f%%  precision %.2f%%  recall %.2f%%  F1 %.2f%%  AUC %.4f  (n=%d)\n",
		100*res.Accuracy, 100*res.BalancedAccuracy, 100*res.Precision, 100*res.Recall, 100*res.F1, res.AUC, res.N)
	return nil
}

func runRegression(e *trout.Experiment) error {
	fms, lastThree, err := e.RunRegressionFolds()
	if err != nil {
		return err
	}
	fmt.Println("regression MAPE per fold (paper last three: 69.99 / 90.87 / 131.18 → mean 97.57%):")
	for _, f := range fms {
		fmt.Printf("  fold %d: MAPE %8.2f%%  Pearson %.4f  within-100%% %.2f%%  MAE %.1f min  (n=%d)\n",
			f.Fold, f.MAPE, f.Pearson, 100*f.Within100, f.MAE, f.N)
	}
	fmt.Printf("  mean MAPE over final three folds: %.2f%%\n", lastThree)
	return nil
}

func runCutoff(e *trout.Experiment) error {
	res, err := e.RunCutoffAblation([]float64{5, 10, 30})
	if err != nil {
		return err
	}
	fmt.Println("cutoff ablation (paper: 5 min ≈ 2× the MAPE of 10 min; 30 min marginal):")
	for _, r := range res {
		fmt.Printf("  cutoff %5.0f min: regression MAPE %8.2f%%  classifier balanced acc %.2f%%  (n=%d)\n",
			r.CutoffMinutes, r.MAPE, 100*r.ClassifierBA, r.N)
	}
	return nil
}

func runLeakage(e *trout.Experiment) error {
	res, err := e.RunLeakageAblation()
	if err != nil {
		return err
	}
	fmt.Printf("leakage ablation (paper: shuffling ≈ doubled apparent performance):\n")
	fmt.Printf("  time-ordered split MAPE: %8.2f%%\n", res.TimeMAPE)
	fmt.Printf("  shuffled split MAPE:     %8.2f%%\n", res.ShuffledMAPE)
	fmt.Printf("  apparent improvement from shuffling: %.2f×\n", res.Ratio)
	return nil
}

func runSMOTE(e *trout.Experiment) error {
	res, err := e.RunSMOTEAblation()
	if err != nil {
		return err
	}
	fmt.Println("SMOTE ablation (classifier, most recent 20%):")
	fmt.Printf("  with SMOTE:    accuracy %.2f%%  balanced %.2f%%  recall %.2f%%\n",
		100*res.WithSMOTE.Accuracy, 100*res.WithSMOTE.BalancedAccuracy, 100*res.WithSMOTE.Recall)
	fmt.Printf("  without SMOTE: accuracy %.2f%%  balanced %.2f%%  recall %.2f%%\n",
		100*res.WithoutSMOTE.Accuracy, 100*res.WithoutSMOTE.BalancedAccuracy, 100*res.WithoutSMOTE.Recall)
	return nil
}

func runActivation(e *trout.Experiment) error {
	res, err := e.RunActivationAblation()
	if err != nil {
		return err
	}
	fmt.Println("activation / batch-norm ablation (paper: ELU marginally best; batch-norm rejected):")
	for _, r := range res {
		fmt.Printf("  %-14s MAPE %8.2f%%  (n=%d)\n", r.Name, r.MAPE, r.N)
	}
	return nil
}

func runScaling(e *trout.Experiment) error {
	res, err := e.RunScalingAblation()
	if err != nil {
		return err
	}
	fmt.Println("scaling ablation (paper: natural log chosen; min-max/Box-Cox no benefit):")
	for _, r := range res {
		fmt.Printf("  %-10s MAPE %8.2f%%  (n=%d)\n", r.Name, r.MAPE, r.N)
	}
	return nil
}

func runErrorByBin(e *trout.Experiment) error {
	bins, err := e.RunErrorByBin()
	if err != nil {
		return err
	}
	fmt.Println("regression error by actual queue-time decade (paper: proportionate accuracy across periods):")
	for _, b := range bins {
		fmt.Printf("  [%8.0f, %8.0f) min: MAPE %8.2f%%  within-100%% %6.2f%%  (n=%d)\n",
			b.LoMinutes, b.HiMinutes, b.MAPE, 100*b.Within100, b.N)
	}
	return nil
}

func runFeatureGroups(e *trout.Experiment) error {
	res, err := e.RunFeatureGroupAblation()
	if err != nil {
		return err
	}
	fmt.Println("feature-group ablation (regressor MAPE with the group zeroed; 'none' = full model):")
	for _, r := range res {
		fmt.Printf("  drop %-22s MAPE %8.2f%%  (n=%d)\n", r.Dropped, r.MAPE, r.N)
	}
	return nil
}

func runOnline(e *trout.Experiment) error {
	res, err := e.RunOnlineAdaptation(5)
	if err != nil {
		return err
	}
	fmt.Println("online adaptation (§V future work — fine-tune on fresh 20% before testing on newest 20%):")
	fmt.Printf("  stale model:   MAPE %8.2f%%  classifier balanced acc %.2f%%\n", res.StaleMAPE, 100*res.StaleClassBA)
	fmt.Printf("  updated model: MAPE %8.2f%%  classifier balanced acc %.2f%%  (n=%d)\n", res.UpdatedMAPE, 100*res.UpdatedClassBA, res.N)
	return nil
}

func runSimETA(e *trout.Experiment) error {
	res, err := e.RunSchedulerETA(300)
	if err != nil {
		return err
	}
	fmt.Println("forward-simulation ETA baseline vs TROUT (long holdout jobs):")
	fmt.Printf("  scheduler simulation: MAPE %8.2f%%  Pearson %.4f\n", res.SimMAPE, res.SimPearson)
	fmt.Printf("  TROUT regression:     MAPE %8.2f%%  Pearson %.4f  (n=%d)\n", res.TroutMAPE, res.TroutPearson, res.N)
	return nil
}

func runScheduler(e *trout.Experiment) error {
	res, err := e.RunSchedulerAblation()
	if err != nil {
		return err
	}
	fmt.Println("scheduler-policy ablation (trace shape + model fit per variant):")
	for _, r := range res {
		fmt.Printf("  %-30s short %.3f  mean queue %8.1f min  MAPE %8.2f%%  cls BA %.2f%%\n",
			r.Name, r.ShortFraction, r.MeanQueueMin, r.MAPE, 100*r.ClassBA)
	}
	return nil
}

func runTransfer(e *trout.Experiment) error {
	res, err := e.RunTransfer()
	if err != nil {
		return err
	}
	fmt.Println("transferability (§V: retrain for a different HPC system):")
	fmt.Printf("  home cluster:            MAPE %8.2f%%  classifier balanced acc %.2f%%\n", res.SourceMAPE, 100*res.SourceBA)
	fmt.Printf("  foreign, zero-shot:      MAPE %8.2f%%  classifier balanced acc %.2f%%\n", res.ZeroShotMAPE, 100*res.ZeroShotBA)
	fmt.Printf("  foreign, retrained:      MAPE %8.2f%%  classifier balanced acc %.2f%%  (n=%d)\n", res.RetrainedMAPE, 100*res.RetrainedBA, res.N)
	return nil
}

func runCalibration(e *trout.Experiment) error {
	res, err := e.RunCalibration(10)
	if err != nil {
		return err
	}
	fmt.Printf("classifier reliability diagram (n=%d, ECE %.4f):\n", res.N, res.ECE)
	for _, b := range res.Bins {
		if b.Count == 0 {
			continue
		}
		fmt.Printf("  P(long) in [%.1f, %.1f): mean pred %.3f  empirical %.3f  (n=%d)\n",
			b.LoProb, b.HiProb, b.MeanPred, b.FracPositive, b.Count)
	}
	return nil
}

func runIntervals(e *trout.Experiment) error {
	res, err := e.RunIntervals()
	if err != nil {
		return err
	}
	fmt.Printf("prediction intervals (q%.0f–q%.0f band on long jobs):\n",
		100*res.Taus[0], 100*res.Taus[len(res.Taus)-1])
	fmt.Printf("  empirical coverage %.2f%% (nominal %.0f%%)  mean width %.1f min  (n=%d)\n",
		100*res.Coverage, 100*res.Nominal, res.MeanWidth, res.N)
	return nil
}

func runSHAP(e *trout.Experiment) error {
	rows, err := e.RunSHAP(15, 600)
	if err != nil {
		return err
	}
	fmt.Println("Kernel SHAP mean-|φ| (the paper's feature-pruning signal), top 15:")
	for i, r := range rows {
		if i >= 15 {
			break
		}
		fmt.Printf("  %-28s %.4f\n", r.Feature, r.MeanAbs)
	}
	return nil
}

func runPartitions(e *trout.Experiment) error {
	res, err := e.RunPartitionBreakdown()
	if err != nil {
		return err
	}
	fmt.Println("per-partition holdout performance (paper §V: shared dominance may mask small-queue behavior):")
	for _, r := range res {
		fmt.Printf("  %-12s %6d jobs (%5d long): MAPE %8.2f%%  classifier balanced acc %.2f%%\n",
			r.Partition, r.Jobs, r.LongJobs, r.MAPE, 100*r.ClassBA)
	}
	return nil
}

func runRuntimeSource(e *trout.Experiment) error {
	res, err := e.RunRuntimeSourceAblation()
	if err != nil {
		return err
	}
	fmt.Println("runtime-feature source ablation (paper §V: a better runtime model as future work):")
	for _, r := range res {
		fmt.Printf("  %-10s MAPE %8.2f%%  (n=%d)\n", r.Source, r.MAPE, r.N)
	}
	return nil
}
