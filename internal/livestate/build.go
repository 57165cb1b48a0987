package livestate

import (
	"fmt"
	"sort"

	"repro/internal/baselines"
	"repro/internal/features"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// Build engineers the Table II features for every job in the trace that
// started, as the daemon would have served them: it fits the runtime forest
// on the earliest fraction of the rows, then Replay replays the trace
// through it.
func Build(tr *trace.Trace, cluster *slurmsim.ClusterSpec, opt features.Options) (*features.Dataset, error) {
	forest, err := fitForest(tr, cluster, opt)
	if err != nil {
		return nil, err
	}
	return Replay(tr, cluster, opt, forest)
}

// Replay builds Build's rows with a given runtime forest: the trace is
// replayed as its event stream (EventsFromTrace) through a fresh Engine,
// and after the last event at each instant t every started job eligible at
// t gets the row SnapshotBatch and features.SnapshotRow give for it. An
// event the engine refuses, or a started job the stream never makes
// eligible, is an error naming the job: the daemon could not serve that
// row. The Pred-Runtime columns (30–32) are the only part of a row the
// forest decides, so two forests replayed over one trace give the same
// rows, in the same order, everywhere else.
func Replay(tr *trace.Trace, cluster *slurmsim.ClusterSpec, opt features.Options, forest *baselines.Forest) (*features.Dataset, error) {
	jobs, rows, totals, err := rowOrder(tr, cluster)
	if err != nil {
		return nil, err
	}
	// src is job ID → runtime seconds for the ablation sources; the engine's
	// queued and running records carry no end time, so the oracle's runtimes
	// come from the trace.
	var src map[int]float64
	switch opt.RuntimeSource {
	case "", "forest":
	case "oracle", "requested":
		src = make(map[int]float64, len(jobs))
		for i := range jobs {
			j := &jobs[i]
			switch {
			case opt.RuntimeSource == "requested":
				src[j.ID] = float64(j.TimeLimit)
			case j.Start != 0 && j.End != 0:
				// A record that has not both started and ended has no true
				// runtime to reveal; it counts as 0.
				src[j.ID] = float64(j.RuntimeSeconds())
			}
		}
	default:
		return nil, fmt.Errorf("livestate: build: unknown RuntimeSource %q", opt.RuntimeSource)
	}

	ds := &features.Dataset{
		Names:        features.Names,
		X:            make([][]float64, rows),
		QueueMinutes: make([]float64, rows),
		Jobs:         jobs[:rows],
		PredRuntime:  make([]float64, rows),
		Runtime:      &features.RuntimePredictor{Forest: forest},
	}
	// The replay asks through a predictor of its own over the same forest,
	// so the returned one starts with an empty memo, as a loaded bundle's
	// does, and a serving bundle's forest is replayed without touching its
	// memo.
	replay := &features.RuntimePredictor{Forest: forest}
	eng := NewEngine()
	evs := EventsFromTrace(tr)
	next := 0 // the first row not yet taken
	for e := range evs {
		if err := eng.ApplyEvent(evs[e]); err != nil {
			return nil, fmt.Errorf("livestate: build: job %d: %w", evs[e].ID(), err)
		}
		t := evs[e].Time
		if e+1 < len(evs) && evs[e+1].Time == t {
			continue
		}
		if next < rows && jobs[next].Eligible < t {
			break // no event fell at its eligibility instant
		}
		lo := next
		for next < rows && jobs[next].Eligible == t {
			next++
		}
		if lo == next {
			continue
		}
		for k, snap := range eng.SnapshotBatch(jobs[lo:next], t) {
			i := lo + k
			row, err := features.SnapshotRow(snap, cluster, replay)
			if err != nil {
				return nil, err
			}
			if src == nil {
				ds.PredRuntime[i] = replay.PredictSeconds(&jobs[i], totals[jobs[i].Partition])
			} else {
				ds.PredRuntime[i] = src[jobs[i].ID]
				sourceColumns(row, snap, src)
			}
			ds.X[i] = row
			ds.QueueMinutes[i] = jobs[i].QueueMinutes()
		}
	}
	if next < rows {
		j := &jobs[next]
		return nil, fmt.Errorf("livestate: build: job %d started, but no event falls at its eligibility instant %d", j.ID, j.Eligible)
	}
	return ds, nil
}

// rowOrder returns the trace's jobs in row order, how many of them are
// rows, and the cluster totals of every partition they name.
func rowOrder(tr *trace.Trace, cluster *slurmsim.ClusterSpec) ([]trace.Job, int, map[string]slurmsim.PartitionTotals, error) {
	if len(tr.Jobs) == 0 {
		return nil, 0, nil, fmt.Errorf("livestate: build: empty trace")
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
		return nil, 0, nil, fmt.Errorf("livestate: build: no job in the trace started")
	}

	totals := map[string]slurmsim.PartitionTotals{}
	for i := range jobs {
		j := &jobs[i]
		if j.Submit <= 0 {
			return nil, 0, nil, fmt.Errorf("livestate: build: job %d has no submit time, so the event stream has no record of it", j.ID)
		}
		if _, ok := totals[j.Partition]; ok {
			continue
		}
		if cluster.Partition(j.Partition) == nil {
			return nil, 0, nil, fmt.Errorf("livestate: build: job %d references unknown partition %q", j.ID, j.Partition)
		}
		totals[j.Partition] = cluster.Totals(j.Partition)
	}
	return jobs, rows, totals, nil
}

// runtimeTrainFraction is the earliest fraction of the rows the runtime
// predictor trains on.
const runtimeTrainFraction = 0.5

// fitForest trains the runtime predictor (random forest on request-time
// features only) on the earliest fraction of the rows, so later jobs never
// leak into it. A job still running (End == 0) has no runtime to learn. The
// ablation sources bypass the forest for the Pred-Runtime columns but
// still train it (bundles always carry one).
func fitForest(tr *trace.Trace, cluster *slurmsim.ClusterSpec, opt features.Options) (*baselines.Forest, error) {
	jobs, rows, totals, err := rowOrder(tr, cluster)
	if err != nil {
		return nil, err
	}
	trainN := int(float64(rows) * runtimeTrainFraction)
	if trainN < 10 {
		trainN = rows
	}
	train := make([]trace.Job, 0, trainN)
	for _, j := range jobs[:trainN] {
		if j.End != 0 {
			train = append(train, j)
		}
	}
	rp, err := features.TrainRuntimePredictor(train, totals, opt.RuntimeTrees, opt.Seed)
	if err != nil {
		return nil, err
	}
	return rp.Forest, nil
}

// sourceColumns rewrites the Pred-Runtime columns (30–32) of the target's
// row from src, job ID → runtime seconds: the target's own, then the sums
// over its partition's pending and running jobs other than itself, in
// slice order.
func sourceColumns(row []float64, snap *features.Snapshot, src map[int]float64) {
	j := &snap.Target
	sum := func(list []trace.Job) float64 {
		var s float64
		for k := range list {
			if o := &list[k]; o.Partition == j.Partition && o.ID != j.ID {
				s += src[o.ID] / 60
			}
		}
		return s
	}
	row[30], row[31], row[32] = src[j.ID]/60, sum(snap.Pending), sum(snap.Running)
}
