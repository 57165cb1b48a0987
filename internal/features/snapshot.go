package features

import (
	"fmt"

	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// Snapshot is a live view of a queue: the deployment-side input for
// Algorithm 1, where pending jobs have no start time yet and running jobs
// have no end. The CLI builds one from the scheduler's current state (or a
// hypothetical job the user is considering, per §V's future-work mode).
type Snapshot struct {
	// Now is the prediction instant (the target's eligibility time).
	Now int64
	// Target is the job to predict. Start/End are ignored.
	Target trace.Job
	// Pending are the other jobs currently waiting in any partition.
	Pending []trace.Job
	// Running are the jobs currently executing in any partition.
	Running []trace.Job
	// History are recent job submissions (for the user past-day
	// aggregates); including Pending/Running members here is fine — rows
	// are deduplicated by job ID.
	History []trace.Job
}

// SnapshotRow builds the target job's 33-feature vector from live queue
// state — the deployment counterpart of Build, which works from completed
// accounting records.
func SnapshotRow(snap *Snapshot, cluster *slurmsim.ClusterSpec, rp *RuntimePredictor) ([]float64, error) {
	if cluster.Partition(snap.Target.Partition) == nil {
		return nil, fmt.Errorf("features: snapshot target references unknown partition %q", snap.Target.Partition)
	}
	if rp == nil {
		return nil, fmt.Errorf("features: snapshot needs a runtime predictor")
	}
	tot := cluster.Totals(snap.Target.Partition)
	j := &snap.Target
	var agg queueAgg
	for i := range snap.Pending {
		if o := &snap.Pending[i]; o.Partition == j.Partition && o.ID != j.ID {
			agg.addQueued(j, o, rp.PredictSeconds(o, tot))
		}
	}
	for i := range snap.Running {
		if o := &snap.Running[i]; o.Partition == j.Partition && o.ID != j.ID {
			agg.addRunning(o, rp.PredictSeconds(o, tot))
		}
	}

	// The target's own submission counts toward its user's past-day
	// activity when it happened before the prediction instant (a job held
	// by a dependency was submitted earlier) — matching the offline
	// builder's semantics. History rows are deduplicated by ID.
	seen := map[int]bool{}
	var user jobSums
	for i := range snap.History {
		o := &snap.History[i]
		if o.User != j.User || seen[o.ID] {
			continue
		}
		if o.Submit < snap.Now-86400 || o.Submit >= snap.Now {
			continue
		}
		seen[o.ID] = true
		user.add(o)
	}

	row := make([]float64, NumFeatures)
	agg.fill(row, j, tot, user, rp.PredictSeconds(j, tot))
	return row, nil
}
