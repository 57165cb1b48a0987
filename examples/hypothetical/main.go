// Hypothetical job queuing — the paper's §V future-work mode. A user
// describes a job they have NOT submitted; TROUT reconstructs the live
// queue state and predicts the wait, letting them tune the request before
// submission. This example trains a bundle, picks a congested moment in the
// trace, and sweeps the hypothetical job's time limit to show how the
// prediction responds.
package main

import (
	"fmt"
	"log"

	trout "repro"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	p := trout.DefaultPipeline(10000, 7)
	p.Model.Classifier.Epochs = 10
	p.Model.Regressor.Epochs = 20
	fmt.Println("building training trace and model...")
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		log.Fatal(err)
	}
	m, _, err := trout.TrainHoldout(ds, p.Model, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	bundle, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		log.Fatal(err)
	}

	// Find the most congested instant in the trace: the eligibility time
	// of the job that waited longest.
	var worst *trout.Job
	for i := range tr.Jobs {
		if worst == nil || tr.Jobs[i].QueueSeconds() > worst.QueueSeconds() {
			worst = &tr.Jobs[i]
		}
	}
	at := worst.Eligible
	fmt.Printf("\nqueue state at t=%d (when job %d began a %.0f-minute wait):\n",
		at, worst.ID, worst.QueueMinutes())

	// Sweep the hypothetical job's requested wall time.
	fmt.Println("hypothetical 16-CPU job in `shared`, sweeping requested time limit:")
	for _, limitMin := range []int64{30, 120, 480, 1440, 2880} {
		snap := trout.SnapshotAtInstant(tr, at, trace.Job{
			ID: -1, User: worst.User, Partition: "shared",
			Submit: at, Eligible: at,
			ReqCPUs: 16, ReqMemGB: 32, ReqNodes: 1,
			TimeLimit: limitMin * 60, Priority: worst.Priority,
		})
		pred, err := bundle.PredictSnapshot(snap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  limit %5d min -> P(long wait) %.3f  %s\n",
			limitMin, pred.Prob, pred.Message(m.Cfg.CutoffMinutes))
	}

	// And the partition dimension: same job, different partitions.
	fmt.Println("\nsame job, sweeping partition:")
	for _, part := range []string{"shared", "wholenode", "standby", "debug"} {
		spec := trace.Job{
			ID: -1, User: worst.User, Partition: part,
			Submit: at, Eligible: at,
			ReqCPUs: 16, ReqMemGB: 32, ReqNodes: 1,
			TimeLimit: 120 * 60, Priority: worst.Priority,
		}
		if part == "wholenode" {
			spec.ReqCPUs = 128
			spec.ReqMemGB = 256
		}
		snap := trout.SnapshotAtInstant(tr, at, spec)
		pred, err := bundle.PredictSnapshot(snap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s -> P(long wait) %.3f  %s\n", part, pred.Prob, pred.Message(m.Cfg.CutoffMinutes))
	}
}
