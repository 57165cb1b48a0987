// Package features engineers the paper's Table II feature set from a job
// trace: for every job, the state of its partition's queue at the job's
// eligibility instant (jobs/CPUs/memory/nodes/wall-time pending, running,
// and pending-with-higher-priority), the submitting user's past-day
// activity, static partition capacity, and the outputs of a random-forest
// runtime predictor. Queue/running overlap is computed with interval trees
// built in chunks of 100 000 jobs with a 10 000-job overlap and merged, as
// §III describes. Per-job computation is goroutine-parallel.
package features

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/intervaltree"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// Names lists the 33 model features, in column order. The first block is
// read straight off the job record; the "Par * Ahead/Queue/Running" blocks
// are interval-tree aggregates; "User * Past Day" is the submitting user's
// trailing-day activity; "Par Total *" are partition constants; the final
// block comes from the runtime predictor.
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

// Options controls feature construction.
type Options struct {
	// ChunkSize/ChunkOverlap configure the paper's chunked interval-tree
	// build; zero values default to 100 000 / 10 000.
	ChunkSize    int
	ChunkOverlap int
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
	// Workers bounds the per-job parallel feature computation; 0 means
	// GOMAXPROCS.
	Workers int
	Seed    int64
}

func (o *Options) defaults() {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 100000
	}
	if o.ChunkOverlap < 0 || o.ChunkOverlap >= o.ChunkSize {
		o.ChunkOverlap = o.ChunkSize / 10
	}
	if o.RuntimeTrainFraction <= 0 || o.RuntimeTrainFraction > 1 {
		o.RuntimeTrainFraction = 0.5
	}
	if o.RuntimeTrees <= 0 {
		o.RuntimeTrees = 50
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
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

// Build engineers features for every job in the trace that started.
func Build(tr *trace.Trace, cluster *slurmsim.ClusterSpec, opt Options) (*Dataset, error) {
	opt.defaults()
	if len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("features: empty trace")
	}
	// The jobs that started come first, in eligibility order: they are the
	// rows. A never-started record (Start == 0: cancelled while pending, or
	// still pending when the trace was cut) has no queue time, so it gets
	// no row and no label, and no runtime to train on; it sorts after them
	// and only counts toward other jobs' queues.
	jobs := append([]trace.Job(nil), tr.Jobs...)
	sort.Slice(jobs, func(i, j int) bool {
		if si, sj := jobs[i].Start == 0, jobs[j].Start == 0; si != sj {
			return sj
		}
		if jobs[i].Eligible != jobs[j].Eligible {
			return jobs[i].Eligible < jobs[j].Eligible
		}
		return jobs[i].ID < jobs[j].ID
	})
	rows := sort.Search(len(jobs), func(i int) bool { return jobs[i].Start == 0 })
	if rows == 0 {
		return nil, fmt.Errorf("features: no job in the trace started")
	}

	// Partition totals, validated up front.
	totals := map[string]slurmsim.PartitionTotals{}
	for i := range jobs {
		name := jobs[i].Partition
		if _, ok := totals[name]; ok {
			continue
		}
		if cluster.Partition(name) == nil {
			return nil, fmt.Errorf("features: job %d references unknown partition %q", jobs[i].ID, name)
		}
		totals[name] = cluster.Totals(name)
	}

	// Runtime predictor (random forest on request-time features only),
	// trained on the earliest fraction of jobs so later jobs never leak
	// into it. A job still running (End == 0) has no runtime to learn. The
	// ablation modes bypass the forest for the Pred-Runtime feature values
	// but still train it (bundles always carry one).
	trainN := int(float64(rows) * opt.RuntimeTrainFraction)
	if trainN < 10 {
		trainN = rows
	}
	train := make([]trace.Job, 0, trainN)
	for i := range jobs[:trainN] {
		if jobs[i].End != 0 {
			train = append(train, jobs[i])
		}
	}
	rp, err := TrainRuntimePredictor(train, totals, opt.RuntimeTrees, opt.Seed)
	if err != nil {
		return nil, err
	}
	var predRuntime []float64
	switch opt.RuntimeSource {
	case "", "forest":
		predRuntime = predictRuntimes(rp, jobs, totals, opt.Workers)
	case "oracle":
		// A record that has not both started and ended has no true
		// runtime to reveal; it counts as 0.
		predRuntime = make([]float64, len(jobs))
		for i := range jobs {
			if jobs[i].Start != 0 && jobs[i].End != 0 {
				predRuntime[i] = float64(jobs[i].RuntimeSeconds())
			}
		}
	case "requested":
		predRuntime = make([]float64, len(jobs))
		for i := range jobs {
			predRuntime[i] = float64(jobs[i].TimeLimit)
		}
	default:
		return nil, fmt.Errorf("features: unknown RuntimeSource %q", opt.RuntimeSource)
	}

	// Interval trees per partition over every record. Interval IDs are
	// indices into jobs.
	pendTrees, runTrees := buildTrees(jobs, opt)

	// Per-user submit history for the past-day aggregates.
	hist := buildUserHistory(jobs)

	ds := &Dataset{
		Names:        Names,
		X:            make([][]float64, rows),
		QueueMinutes: make([]float64, rows),
		Jobs:         jobs[:rows],
		PredRuntime:  predRuntime[:rows],
		Runtime:      rp,
	}

	var wg sync.WaitGroup
	chunk := (rows + opt.Workers - 1) / opt.Workers
	for w := 0; w < opt.Workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ds.X[i] = buildRow(jobs, i, totals, pendTrees, runTrees, hist, predRuntime)
				ds.QueueMinutes[i] = jobs[i].QueueMinutes()
			}
		}(lo, hi)
	}
	wg.Wait()
	return ds, nil
}

// buildTrees constructs the per-partition pending and running interval
// trees with the paper's chunk/overlap/merge scheme. A job is pending over
// [Eligible, Start) and running over [Start, End), with the open intervals
// of livestate.PhaseAt: a record that never started (Start == 0) is
// pending until its End, or for good when it has none, and never running;
// one that started but has no End is still running.
func buildTrees(jobs []trace.Job, opt Options) (pend, run map[string]*intervaltree.Tree) {
	openEnd := func(t int64) int64 {
		if t == 0 {
			return math.MaxInt64
		}
		return t
	}
	pendIvs := map[string][]intervaltree.Interval{}
	runIvs := map[string][]intervaltree.Interval{}
	for i := range jobs {
		j := &jobs[i]
		if j.Start == 0 {
			pendIvs[j.Partition] = append(pendIvs[j.Partition],
				intervaltree.Interval{Lo: j.Eligible, Hi: openEnd(j.End), ID: i})
			continue
		}
		pendIvs[j.Partition] = append(pendIvs[j.Partition],
			intervaltree.Interval{Lo: j.Eligible, Hi: j.Start, ID: i})
		runIvs[j.Partition] = append(runIvs[j.Partition],
			intervaltree.Interval{Lo: j.Start, Hi: openEnd(j.End), ID: i})
	}
	pend = make(map[string]*intervaltree.Tree, len(pendIvs))
	run = make(map[string]*intervaltree.Tree, len(runIvs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for name := range pendIvs {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			p := intervaltree.BuildChunked(pendIvs[name], opt.ChunkSize, opt.ChunkOverlap)
			r := intervaltree.BuildChunked(runIvs[name], opt.ChunkSize, opt.ChunkOverlap)
			mu.Lock()
			pend[name], run[name] = p, r
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	return pend, run
}

// userHistory indexes each user's jobs by submit time with prefix sums so a
// trailing-window aggregate is two binary searches.
type userHistory struct {
	submit   []int64
	cumJobs  []float64 // 1 per job; cum[i] = sum over jobs[0..i)
	cumCPUs  []float64
	cumMem   []float64
	cumNodes []float64
	cumLimit []float64
}

func buildUserHistory(jobs []trace.Job) map[int]*userHistory {
	byUser := map[int][]int{}
	for i := range jobs {
		byUser[jobs[i].User] = append(byUser[jobs[i].User], i)
	}
	out := make(map[int]*userHistory, len(byUser))
	for user, idx := range byUser {
		sort.Slice(idx, func(a, b int) bool { return jobs[idx[a]].Submit < jobs[idx[b]].Submit })
		h := &userHistory{
			submit:   make([]int64, len(idx)),
			cumJobs:  make([]float64, len(idx)+1),
			cumCPUs:  make([]float64, len(idx)+1),
			cumMem:   make([]float64, len(idx)+1),
			cumNodes: make([]float64, len(idx)+1),
			cumLimit: make([]float64, len(idx)+1),
		}
		for k, i := range idx {
			j := &jobs[i]
			h.submit[k] = j.Submit
			h.cumJobs[k+1] = h.cumJobs[k] + 1
			h.cumCPUs[k+1] = h.cumCPUs[k] + float64(j.ReqCPUs)
			h.cumMem[k+1] = h.cumMem[k] + j.ReqMemGB
			h.cumNodes[k+1] = h.cumNodes[k] + float64(j.ReqNodes)
			h.cumLimit[k+1] = h.cumLimit[k] + float64(j.TimeLimit)/60
		}
		out[user] = h
	}
	return out
}

// window returns aggregate activity in [t-86400, t).
func (h *userHistory) window(t int64) jobSums {
	lo := sort.Search(len(h.submit), func(i int) bool { return h.submit[i] >= t-86400 })
	hi := sort.Search(len(h.submit), func(i int) bool { return h.submit[i] >= t })
	return jobSums{
		jobs:  h.cumJobs[hi] - h.cumJobs[lo],
		cpus:  h.cumCPUs[hi] - h.cumCPUs[lo],
		mem:   h.cumMem[hi] - h.cumMem[lo],
		nodes: h.cumNodes[hi] - h.cumNodes[lo],
		limit: h.cumLimit[hi] - h.cumLimit[lo],
	}
}

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
// over the other jobs of its partition. Both row builders feed it — the
// offline one from interval-tree stabs, the serving one from a queue
// column — each in its own iteration order, which fixes the
// floating-point sums; fill owns the column layout.
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

// buildRow computes one job's 33-feature vector.
func buildRow(jobs []trace.Job, i int, totals map[string]slurmsim.PartitionTotals,
	pendTrees, runTrees map[string]*intervaltree.Tree,
	hist map[int]*userHistory, predRuntime []float64) []float64 {

	j := &jobs[i]
	t := j.Eligible
	var agg queueAgg
	// Pending jobs in this partition at eligibility (excluding self).
	pendTrees[j.Partition].StabVisit(t, func(iv intervaltree.Interval) {
		if iv.ID != i {
			q := queuedJobOf(&jobs[iv.ID], predRuntime[iv.ID])
			agg.addQueued(j, &q)
		}
	})
	// Running jobs in this partition at eligibility. A zero-queue job is
	// "running" at its own eligibility instant; the features describe the
	// state it observed, so it skips itself.
	runTrees[j.Partition].StabVisit(t, func(iv intervaltree.Interval) {
		if iv.ID != i {
			q := queuedJobOf(&jobs[iv.ID], predRuntime[iv.ID])
			agg.addRunning(&q)
		}
	})
	row := make([]float64, NumFeatures)
	agg.fill(row, j, totals[j.Partition], hist[j.User].window(t), predRuntime[i])
	return row
}

// predictRuntimes applies the runtime predictor to every job in parallel.
// It visits each job once, so it evaluates the forest directly and leaves
// the predictor's memo to the serving path.
func predictRuntimes(rp *RuntimePredictor, jobs []trace.Job, totals map[string]slurmsim.PartitionTotals, workers int) []float64 {
	n := len(jobs)
	out := make([]float64, n)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				in := runtimeInputsOf(&jobs[i], totals[jobs[i].Partition])
				out[i] = rp.evaluate(&in)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
