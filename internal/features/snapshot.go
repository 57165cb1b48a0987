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
//
// Pending and Running are read-only once a row has been taken from the
// snapshot: the runtime predictor remembers a queue by the identity of
// those two backing arrays (first element and length), so a job modified
// in place, by assignment or by an append to a shorter re-slice of the
// same array, would be summed with its old values. Re-slicing, appending
// to the full slice and building a new slice all change the identity and
// are safe.
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
// accounting records. The queue-state columns sum the target partition's
// queue column (RuntimePredictor.column) in the queue's slice order,
// so every caller that passes the same Pending/Running slices — rows of
// one batch, requests served from one cached queue — shares one pass of
// the runtime forest over them.
func SnapshotRow(snap *Snapshot, cluster *slurmsim.ClusterSpec, rp *RuntimePredictor) ([]float64, error) {
	if cluster.Partition(snap.Target.Partition) == nil {
		return nil, fmt.Errorf("features: snapshot target references unknown partition %q", snap.Target.Partition)
	}
	if rp == nil {
		return nil, fmt.Errorf("features: snapshot needs a runtime predictor")
	}
	tot := cluster.Totals(snap.Target.Partition)
	j := &snap.Target
	col := rp.column(snap, j.Partition, tot)
	var agg queueAgg
	for i := range col.pending {
		if q := &col.pending[i]; q.id != j.ID {
			agg.addQueued(j, q)
		}
	}
	for i := range col.running {
		if q := &col.running[i]; q.id != j.ID {
			agg.addRunning(q)
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
		q := queuedJobOf(o, 0)
		user.add(&q)
	}

	row := make([]float64, NumFeatures)
	agg.fill(row, j, tot, user, rp.PredictSeconds(j, tot))
	return row, nil
}
