// Submission advisor: the optimization loop the paper's §V sketches — "users
// optimize their job submissions until they achieve parameters that will
// result in their job running within a desired time frame." Given a required
// core count and wall time, the advisor enumerates equivalent request shapes
// (partition × node layout × padding of the time limit) and ranks them by
// predicted wait.
package main

import (
	"fmt"
	"log"
	"sort"

	trout "repro"
	"repro/internal/trace"
)

// shape is one candidate request for the same underlying work.
type shape struct {
	label     string
	partition string
	cpus      int
	memGB     float64
	nodes     int
	limitMin  int64
}

func main() {
	log.SetFlags(0)

	p := trout.DefaultPipeline(10000, 19)
	p.Model.Classifier.Epochs = 10
	p.Model.Regressor.Epochs = 20
	fmt.Println("training advisor model...")
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

	// The user's actual need: 64 cores for ~2 hours.
	fmt.Println("\nneed: 64 cores, ~2 h of work. Candidate request shapes:")
	candidates := []shape{
		{"shared, exact ask", "shared", 64, 128, 1, 150},
		{"shared, padded limit", "shared", 64, 128, 1, 720},
		{"shared, split 2 nodes", "shared", 64, 128, 2, 150},
		{"wholenode, 1 node", "wholenode", 128, 256, 1, 150},
		{"standby (low tier)", "standby", 64, 128, 1, 150},
		{"debug (high tier)", "debug", 64, 128, 1, 115},
	}

	// Advise at a congested moment so the ranking is interesting.
	at := congestedInstant(tr)
	type advice struct {
		shape
		prob    float64
		minutes float64
		msg     string
	}
	var ranked []advice
	// Every candidate faces the same queue: reconstruct it once and stamp
	// each request shape onto a copy.
	queue := trout.SnapshotAtInstant(tr, at, trace.Job{})
	prio := medianPriority(queue.Pending)
	for _, c := range candidates {
		snap := *queue
		snap.Target = trace.Job{
			ID: -1, User: 5, Partition: c.partition,
			Submit: at, Eligible: at,
			ReqCPUs: c.cpus, ReqMemGB: c.memGB, ReqNodes: c.nodes,
			TimeLimit: c.limitMin * 60, Priority: prio,
		}
		pred, err := bundle.PredictSnapshot(&snap)
		if err != nil {
			log.Fatal(err)
		}
		est := 0.0
		if pred.Long {
			est = pred.Minutes
		}
		ranked = append(ranked, advice{c, pred.Prob, est, pred.Message(m.Cfg.CutoffMinutes)})
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].minutes != ranked[b].minutes {
			return ranked[a].minutes < ranked[b].minutes
		}
		return ranked[a].prob < ranked[b].prob
	})
	fmt.Printf("%-24s %-11s %-9s %s\n", "shape", "partition", "P(long)", "prediction")
	for _, a := range ranked {
		fmt.Printf("%-24s %-11s %8.3f  %s\n", a.label, a.partition, a.prob, a.msg)
	}
	fmt.Printf("\nadvisor pick: %s\n", ranked[0].label)
}

// congestedInstant returns the eligibility time of the longest-waiting job.
func congestedInstant(tr *trout.Trace) int64 {
	best := &tr.Jobs[0]
	for i := range tr.Jobs {
		if tr.Jobs[i].QueueSeconds() > best.QueueSeconds() {
			best = &tr.Jobs[i]
		}
	}
	return best.Eligible
}

// medianPriority estimates a fresh job's priority from the pending queue.
func medianPriority(pending []trace.Job) int64 {
	if len(pending) == 0 {
		return 10000
	}
	prios := make([]int64, len(pending))
	for i := range pending {
		prios[i] = pending[i].Priority
	}
	sort.Slice(prios, func(a, b int) bool { return prios[a] < prios[b] })
	return prios[len(prios)/2]
}
