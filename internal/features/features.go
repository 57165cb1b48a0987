// Package features defines the paper's Table II feature set and computes
// one job's row of it: the state of its partition's queue at the job's
// eligibility instant (jobs/CPUs/memory/nodes/wall-time pending, running,
// and pending-with-higher-priority), the submitting user's past-day
// activity, static partition capacity, and the outputs of a random-forest
// runtime predictor. SnapshotRow takes that row from a Snapshot of the
// queue; there is one source of snapshots, the live-state engine, and the
// offline dataset is the engine replaying a trace (livestate.Build).
package features

import (
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// Names lists the 33 model features, in column order. The first block is
// read straight off the job record; the "Par * Ahead/Queue/Running" blocks
// are the target partition's queue at the instant; "User * Past Day" is
// the submitting user's trailing-day activity; "Par Total *" are partition
// constants; the final block comes from the runtime predictor.
var Names = []string{
	"Priority",
	"Timelimit Raw",
	"Req CPUs",
	"Req Mem",
	"Req Nodes",
	"Par Jobs Ahead",
	"Par CPUs Ahead",
	"Par Mem Ahead",
	"Par Nodes Ahead",
	"Par Timelimit Ahead",
	"Par Jobs Queue",
	"Par CPUs Queue",
	"Par Mem Queue",
	"Par Nodes Queue",
	"Par Timelimit Queue",
	"Par Jobs Running",
	"Par CPUs Running",
	"Par Mem Running",
	"Par Nodes Running",
	"Par Timelimit Running",
	"User Jobs Past Day",
	"User CPUs Past Day",
	"User Mem Past Day",
	"User Nodes Past Day",
	"User Timelimit Past Day",
	"Par Total Nodes",
	"Par Total CPU",
	"Par CPU per Node",
	"Par Mem per Node",
	"Par Total GPU",
	"Pred Runtime",
	"Par Queue Pred Timelimit",
	"Par Running Pred Timelimit",
}

// NumFeatures is the feature-vector width (the paper's regression model has
// 33 inputs).
const NumFeatures = 33

// Options controls dataset construction (livestate.Build).
type Options struct {
	// RuntimeTrainFraction is the earliest fraction of jobs used to train
	// the runtime predictor (time-ordered, so later jobs never leak into
	// it); 0 means 0.5.
	RuntimeTrainFraction float64
	// RuntimeTrees sizes the runtime random forest; 0 means 50.
	RuntimeTrees int
	// RuntimeSource selects how the Pred-Runtime features are filled:
	// "forest" (default — the paper's random-forest predictor), "oracle"
	// (the job's true runtime; an upper bound for the §V discussion on
	// better runtime models) or "requested" (the raw time limit; the
	// no-model lower bound).
	RuntimeSource string
	Seed          int64
}

// Dataset is the engineered feature matrix, aligned with Jobs (which are
// sorted by eligibility time — the order every time-based split relies on).
type Dataset struct {
	Names        []string
	X            [][]float64 // raw features; apply scaling before modeling
	QueueMinutes []float64   // regression target
	Jobs         []trace.Job
	PredRuntime  []float64 // runtime-predictor output per job, seconds
	// Runtime is the fitted runtime predictor, reusable for live-queue
	// snapshots (see SnapshotRow) and deployment bundles.
	Runtime *RuntimePredictor
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// queuedJob is a job as a row's sums see it: the values jobSums and
// queueAgg add, converted once. It is the element of a queue column.
type queuedJob struct {
	id                      int
	priority                int64
	cpus, mem, nodes, limit float64 // limit in minutes
	pred                    float64 // predicted runtime, minutes
}

func queuedJobOf(o *trace.Job, predSeconds float64) queuedJob {
	return queuedJob{
		id: o.ID, priority: o.Priority,
		cpus: float64(o.ReqCPUs), mem: o.ReqMemGB, nodes: float64(o.ReqNodes),
		limit: float64(o.TimeLimit) / 60, pred: predSeconds / 60,
	}
}

// jobSums is one five-column block of the feature row: a count of jobs
// and their summed requests (time limit in minutes).
type jobSums struct{ jobs, cpus, mem, nodes, limit float64 }

func (a *jobSums) add(q *queuedJob) {
	a.jobs++
	a.cpus += q.cpus
	a.mem += q.mem
	a.nodes += q.nodes
	a.limit += q.limit
}

func (a *jobSums) put(dst []float64) {
	dst[0], dst[1], dst[2], dst[3], dst[4] = a.jobs, a.cpus, a.mem, a.nodes, a.limit
}

// queueAgg accumulates the queue-state columns of one target job's row
// over the other jobs of its partition, in a queue column's slice order,
// which fixes the floating-point sums; fill owns the column layout.
type queueAgg struct {
	ahead, queued, running  jobSums
	queuedPred, runningPred float64 // summed predicted runtimes, minutes
}

// addQueued counts a pending job q toward the target's queue columns, and
// toward the ahead columns when it outranks the target.
func (a *queueAgg) addQueued(target *trace.Job, q *queuedJob) {
	a.queued.add(q)
	a.queuedPred += q.pred
	if q.priority > target.Priority {
		a.ahead.add(q)
	}
}

// addRunning counts a running job q toward the running columns.
func (a *queueAgg) addRunning(q *queuedJob) {
	a.running.add(q)
	a.runningPred += q.pred
}

// fill writes job j's 33 columns (the order of Names) into row.
func (a *queueAgg) fill(row []float64, j *trace.Job, tot slurmsim.PartitionTotals, user jobSums, predSeconds float64) {
	row[0] = float64(j.Priority)
	row[1] = float64(j.TimeLimit) / 60
	row[2] = float64(j.ReqCPUs)
	row[3] = j.ReqMemGB
	row[4] = float64(j.ReqNodes)
	a.ahead.put(row[5:10])
	a.queued.put(row[10:15])
	a.running.put(row[15:20])
	user.put(row[20:25])
	row[25] = float64(tot.Nodes)
	row[26] = float64(tot.CPUs)
	row[27] = tot.CPUPerNode
	row[28] = tot.MemPerNode
	row[29] = float64(tot.GPUs)
	row[30] = predSeconds / 60
	row[31] = a.queuedPred
	row[32] = a.runningPred
}
