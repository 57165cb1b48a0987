// Command trout is the paper's prediction CLI (Algorithm 1): given a
// trained bundle and a job, it prints either "Predicted to take less than
// 10 minutes" or "Predicted to start in N minutes".
//
// Two modes:
//
//	# Predict for an existing job in an accounting trace (the queue state
//	# is reconstructed at the job's eligibility instant):
//	trout -bundle trout.bundle -trace trace.csv -job 4211
//
//	# Hypothetical job (§V future work): describe a job you have not
//	# submitted yet against the queue state in the trace at a given time:
//	trout -bundle trout.bundle -trace trace.csv -at 1700100000 \
//	      -partition shared -cpus 16 -mem 32 -nodes 1 -limit 240 -user 7
package main

import (
	"flag"
	"fmt"
	"log"
	"slices"

	trout "repro"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trout: ")
	var (
		bundlePath = flag.String("bundle", "trout.bundle", "trained bundle from trout-train")
		tracePath  = flag.String("trace", "", "accounting trace supplying queue state")
		jobID      = flag.Int("job", 0, "predict this existing job ID")
		at         = flag.Int64("at", 0, "hypothetical mode: prediction instant (unix seconds)")
		partition  = flag.String("partition", "shared", "hypothetical job partition")
		cpus       = flag.Int("cpus", 16, "hypothetical requested CPUs")
		memGB      = flag.Float64("mem", 32, "hypothetical requested memory (GB)")
		nodes      = flag.Int("nodes", 1, "hypothetical requested nodes")
		gpus       = flag.Int("gpus", 0, "hypothetical requested GPUs")
		limitMin   = flag.Int64("limit", 240, "hypothetical time limit (minutes)")
		user       = flag.Int("user", 0, "hypothetical submitting user ID")
		priority   = flag.Int64("priority", 0, "hypothetical Slurm priority (0 = median of queue)")
		verbose    = flag.Bool("v", false, "print classifier probability and regression detail")
	)
	flag.Parse()

	b, err := trout.LoadBundleFile(*bundlePath)
	if err != nil {
		log.Fatal(err)
	}
	if *tracePath == "" {
		log.Fatal("need -trace for queue state")
	}
	tr, err := trace.ReadFile(*tracePath)
	if err != nil {
		log.Fatal(err)
	}

	var snap *trout.Snapshot
	if *jobID != 0 {
		snap, err = trout.SnapshotFromTrace(tr, *jobID)
		if err != nil {
			log.Fatal(err)
		}
	} else if *at != 0 {
		snap = hypotheticalSnapshot(tr, *at, trace.Job{
			ID: -1, User: *user, Partition: *partition,
			Submit: *at, Eligible: *at,
			ReqCPUs: *cpus, ReqMemGB: *memGB, ReqNodes: *nodes, ReqGPUs: *gpus,
			TimeLimit: *limitMin * 60, Priority: *priority,
		})
	} else {
		log.Fatal("need -job <id> or -at <time> (hypothetical mode)")
	}

	pred, err := b.PredictSnapshot(snap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(pred.Message(b.Model.Cfg.CutoffMinutes))
	if *verbose {
		fmt.Printf("classifier P(long) = %.4f\n", pred.Prob)
		if pred.Long {
			fmt.Printf("regression estimate = %.1f minutes\n", pred.Minutes)
		}
		fmt.Printf("queue state: %d pending, %d running in snapshot\n",
			len(snap.Pending), len(snap.Running))
	}
}

// hypotheticalSnapshot reconstructs queue state at an arbitrary instant and
// injects the hypothetical job as the target; a job with no priority of
// its own gets the median of the jobs it would queue behind.
func hypotheticalSnapshot(tr *trout.Trace, at int64, target trace.Job) *trout.Snapshot {
	snap := trout.SnapshotAtInstant(tr, at, target)
	if target.Priority == 0 && len(snap.Pending) > 0 {
		prios := make([]int64, len(snap.Pending))
		for i := range snap.Pending {
			prios[i] = snap.Pending[i].Priority
		}
		slices.Sort(prios)
		snap.Target.Priority = prios[len(prios)/2]
	}
	return snap
}
