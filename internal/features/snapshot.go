package features

import (
	"fmt"
	"math"
	"slices"

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

// SnapshotRow builds the target job's 33-feature vector from a queue
// snapshot — the one row builder: the daemon takes its rows from the live
// engine's snapshots, and livestate.Build takes the training rows from the
// same engine replaying a trace. The queue-state columns come from the
// target partition's queue column (RuntimePredictor.column), so every
// caller that passes the same Pending/Running slices — rows of one batch,
// requests served from one cached queue, the replay's rows at one instant
// — shares one pass of the runtime forest over them, and every target with
// the same ahead set shares one sum (queueColumn.block).
func SnapshotRow(snap *Snapshot, cluster *slurmsim.ClusterSpec, rp *RuntimePredictor) ([]float64, error) {
	if cluster.Partition(snap.Target.Partition) == nil {
		return nil, fmt.Errorf("features: snapshot target references unknown partition %q", snap.Target.Partition)
	}
	if rp == nil {
		return nil, fmt.Errorf("features: snapshot needs a runtime predictor")
	}
	tot := cluster.Totals(snap.Target.Partition)
	j := &snap.Target
	agg := rp.column(snap, j.Partition, tot).block(j, &rp.cols.walks)
	row := make([]float64, NumFeatures)
	agg.fill(row, j, tot, userSums(snap), rp.PredictSeconds(j, tot))
	return row, nil
}

// userSums is the target user's past-day activity: History's entries by
// that user submitted in [Now-86400, Now), in slice order, each job ID
// counted at its first such entry. The target's own submission counts
// when it happened before the prediction instant (a job held by a
// dependency was submitted earlier).
//
// The engine hands over a user's history ID-sorted and unique, so while
// the accepted IDs ascend, the last one is all the deduplication needs and
// nothing is allocated. The first ID that does not ascend turns them into
// a sorted slice, searched and inserted into from then on.
func userSums(snap *Snapshot) jobSums {
	j := &snap.Target
	accept := func(o *trace.Job) bool {
		return o.User == j.User && o.Submit >= snap.Now-86400 && o.Submit < snap.Now
	}
	var user jobSums
	last := math.MinInt // the greatest accepted ID, while ids is nil
	var ids []int       // the accepted IDs, sorted, once one failed to ascend
	for i := range snap.History {
		o := &snap.History[i]
		if !accept(o) {
			continue
		}
		if ids == nil && o.ID > last {
			last = o.ID
		} else {
			if ids == nil {
				for k := range snap.History[:i] {
					if p := &snap.History[k]; accept(p) {
						ids = append(ids, p.ID)
					}
				}
			}
			k, dup := slices.BinarySearch(ids, o.ID)
			if dup {
				continue
			}
			ids = slices.Insert(ids, k, o.ID)
		}
		q := queuedJobOf(o, 0)
		user.add(&q)
	}
	return user
}
