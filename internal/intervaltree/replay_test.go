package intervaltree

import (
	"math"
	"slices"
	"sort"
	"testing"

	trout "repro"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// replayCluster has three partitions of different totals.
func replayCluster() slurmsim.ClusterSpec {
	return slurmsim.ClusterSpec{
		Nodes: []slurmsim.NodeSpec{{CPUs: 4, MemGB: 8}, {CPUs: 4, MemGB: 8}, {CPUs: 16, MemGB: 64, GPUs: 4}},
		Partitions: []slurmsim.PartitionSpec{
			{Name: "shared", Tier: 1, NodeIDs: []int{0, 1}},
			{Name: "gpu", Tier: 1, NodeIDs: []int{2}},
			{Name: "debug", Tier: 2, NodeIDs: []int{0}},
		},
	}
}

var replayParts = []string{"shared", "gpu", "debug"}

// fuzzTrace decodes 8 bytes per job into a consistent trace. Times move in
// steps of 5,000 s, so jobs tie at one instant and the 24 h user window
// both holds and drops jobs: byte 1 is the submit step after the previous
// job, bytes 2–4 the eligibility delay, the wait and the runtime (0 is a
// tie: submitted eligible, zero wait, zero runtime). Byte 5 is the kind:
// completed, cancelled while pending, still pending, or still running.
// The first job is a zero-wait completed one, so the runtime forest always
// has a job to learn from.
func fuzzTrace(data []byte) *trace.Trace {
	const unit = 5000
	tr := &trace.Trace{}
	clock := int64(unit)
	for id := 1; len(data) >= 8 && id <= 48; data, id = data[8:], id+1 {
		b := data[:8]
		if id == 1 {
			b = []byte{b[0], 0, 0, 0, b[4], 0, b[6], b[7]}
		}
		clock += int64(b[1]%4) * unit
		j := trace.Job{
			ID: id, User: int(b[0]>>2) % 4, Partition: replayParts[int(b[0])%len(replayParts)],
			State: trace.StateCompleted, Submit: clock,
			ReqCPUs: 1 + int(b[7]%4), ReqMemGB: float64(b[7]) / 10, ReqNodes: 1 + int(b[6]>>4)%2,
			TimeLimit: 600 * int64(1+b[6]%5), Priority: int64(b[6] % 8),
		}
		j.Eligible = j.Submit + int64(b[2]%3)*unit
		start := j.Eligible + int64(b[3]%4)*unit
		end := start + int64(b[4]%4)*unit
		switch b[5] % 6 {
		case 3: // cancelled while pending
			j.End, j.State = start, trace.StateCancelled
		case 4: // still pending when the trace was cut
			j.State = ""
		case 5: // still running
			j.Start, j.State = start, ""
		default:
			j.Start, j.End = start, end
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	return tr
}

// runtimeOf is a job's Pred-Runtime value in seconds under a runtime
// source.
func runtimeOf(source string, rp *features.RuntimePredictor, o *trace.Job, tot slurmsim.PartitionTotals) float64 {
	switch source {
	case "oracle":
		if o.Start != 0 && o.End != 0 {
			return float64(o.RuntimeSeconds())
		}
		return 0
	case "requested":
		return float64(o.TimeLimit)
	}
	return rp.PredictSeconds(o, tot)
}

// scanRow is job id's row off the whole-trace scan: SnapshotFromTrace on
// the ID-ordered trace, the row SnapshotRow takes, and for an ablation
// source its Pred-Runtime columns summed over the same slices.
func scanRow(t *testing.T, sorted *trace.Trace, id int, cluster *slurmsim.ClusterSpec, rp *features.RuntimePredictor, source string) []float64 {
	t.Helper()
	snap, err := trout.SnapshotFromTrace(sorted, id)
	if err != nil {
		t.Fatal(err)
	}
	row, err := features.SnapshotRow(snap, cluster, rp)
	if err != nil {
		t.Fatal(err)
	}
	if source != "forest" {
		j := &snap.Target
		tot := cluster.Totals(j.Partition)
		sum := func(list []trace.Job) float64 {
			var s float64
			for k := range list {
				if o := &list[k]; o.Partition == j.Partition {
					s += runtimeOf(source, rp, o, tot) / 60
				}
			}
			return s
		}
		row[30], row[31], row[32] = runtimeOf(source, rp, j, tot)/60, sum(snap.Pending), sum(snap.Running)
	}
	return row
}

// treeRows is the paper's construction, the oracle the replay stands in
// for: per partition, chunked interval trees over every record's pending
// and running intervals (open ones run to ∞, as livestate.PhaseAt has it),
// stabbed at each row's eligibility instant, plus a scan of the user's
// submissions for the past-day block. Rows follow ds.Jobs.
func treeRows(tr *trace.Trace, ds *features.Dataset, cluster *slurmsim.ClusterSpec, source string) [][]float64 {
	openEnd := func(t int64) int64 {
		if t == 0 {
			return math.MaxInt64
		}
		return t
	}
	pendIvs, runIvs := map[string][]Interval{}, map[string][]Interval{}
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if j.Start == 0 {
			pendIvs[j.Partition] = append(pendIvs[j.Partition], Interval{Lo: j.Eligible, Hi: openEnd(j.End), ID: i})
			continue
		}
		pendIvs[j.Partition] = append(pendIvs[j.Partition], Interval{Lo: j.Eligible, Hi: j.Start, ID: i})
		runIvs[j.Partition] = append(runIvs[j.Partition], Interval{Lo: j.Start, Hi: openEnd(j.End), ID: i})
	}
	pend, run := map[string]*Tree{}, map[string]*Tree{}
	for name := range pendIvs {
		pend[name], run[name] = BuildChunked(pendIvs[name], 8, 2), BuildChunked(runIvs[name], 8, 2)
	}

	rows := make([][]float64, ds.Len())
	for i := range ds.Jobs {
		j, at := &ds.Jobs[i], ds.Jobs[i].Eligible
		tot := cluster.Totals(j.Partition)
		row := make([]float64, features.NumFeatures)
		add := func(block []float64, o *trace.Job) {
			block[0]++
			block[1] += float64(o.ReqCPUs)
			block[2] += o.ReqMemGB
			block[3] += float64(o.ReqNodes)
			block[4] += float64(o.TimeLimit) / 60
		}
		pend[j.Partition].StabVisit(at, func(iv Interval) {
			if o := &tr.Jobs[iv.ID]; o.ID != j.ID {
				add(row[10:15], o)
				row[31] += runtimeOf(source, ds.Runtime, o, tot) / 60
				if o.Priority > j.Priority {
					add(row[5:10], o)
				}
			}
		})
		run[j.Partition].StabVisit(at, func(iv Interval) {
			if o := &tr.Jobs[iv.ID]; o.ID != j.ID {
				add(row[15:20], o)
				row[32] += runtimeOf(source, ds.Runtime, o, tot) / 60
			}
		})
		for k := range tr.Jobs {
			if o := &tr.Jobs[k]; o.User == j.User && o.Submit >= at-86400 && o.Submit < at {
				add(row[20:25], o)
			}
		}
		row[0], row[1], row[2], row[3], row[4] = float64(j.Priority), float64(j.TimeLimit)/60, float64(j.ReqCPUs), j.ReqMemGB, float64(j.ReqNodes)
		row[25], row[26], row[27], row[28], row[29] = float64(tot.Nodes), float64(tot.CPUs), tot.CPUPerNode, tot.MemPerNode, float64(tot.GPUs)
		row[30] = runtimeOf(source, ds.Runtime, j, tot) / 60
		rows[i] = row
	}
	return rows
}

// FuzzBuildReplay: on small traces decoded from fuzzer bytes (ties at one
// instant, zero-wait jobs, pending cancellations, still-pending and
// still-running records), under each runtime source, livestate.Build's
// rows equal the whole-trace scan's bit for bit and the chunked interval
// trees' within 1e-9 relative; its rows are the started jobs in
// (eligibility, ID) order, labelled with their waits.
func FuzzBuildReplay(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 1, 0, 3, 9, 1, 0, 0, 1, 2, 0, 5, 7, 4, 1, 1, 2, 1, 3, 2, 8, 5, 0, 0, 0, 0, 4, 1, 2})
	f.Add(uint8(1), []byte{1, 0, 0, 0, 1, 0, 3, 9, 1, 0, 0, 0, 0, 0, 3, 9, 5, 0, 0, 2, 1, 5, 3, 9, 9, 2, 1, 1, 3, 1, 4, 21})
	f.Add(uint8(2), []byte{2, 0, 0, 0, 1, 0, 3, 9, 6, 3, 0, 3, 0, 2, 7, 1, 2, 0, 2, 0, 0, 1, 3, 4, 6, 1, 0, 1, 1, 5, 7, 3})
	cluster := replayCluster()
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		tr := fuzzTrace(data)
		if len(tr.Jobs) == 0 {
			return
		}
		source := [...]string{"forest", "oracle", "requested"}[sel%3]
		ds, err := livestate.Build(tr, &cluster, features.Options{Seed: 1, RuntimeTrees: 3, RuntimeSource: source})
		if err != nil {
			t.Fatal(err)
		}
		var started []trace.Job
		for _, j := range tr.Jobs {
			if j.Start != 0 {
				started = append(started, j)
			}
		}
		sort.SliceStable(started, func(a, b int) bool { return started[a].Eligible < started[b].Eligible })
		if !slices.Equal(ds.Jobs, started) {
			t.Fatalf("rows for %v, want the started jobs %v", ds.Jobs, started)
		}

		tree := treeRows(tr, ds, &cluster, source)
		for i := range ds.Jobs {
			j := &ds.Jobs[i]
			scan := scanRow(t, tr, j.ID, &cluster, ds.Runtime, source)
			for f := range scan {
				got := ds.X[i][f]
				if math.Float64bits(got) != math.Float64bits(scan[f]) {
					t.Fatalf("job %d feature %q: replay %v, scan %v", j.ID, features.Names[f], got, scan[f])
				}
				if d := math.Abs(got - tree[i][f]); d > 1e-9*math.Max(math.Abs(got), math.Abs(tree[i][f])) {
					t.Fatalf("job %d feature %q: replay %v, trees %v", j.ID, features.Names[f], got, tree[i][f])
				}
			}
			if pred := runtimeOf(source, ds.Runtime, j, cluster.Totals(j.Partition)); ds.PredRuntime[i] != pred || ds.QueueMinutes[i] != j.QueueMinutes() {
				t.Fatalf("job %d: predicted %v s and %v min waited, want %v and %v",
					j.ID, ds.PredRuntime[i], ds.QueueMinutes[i], pred, j.QueueMinutes())
			}
		}
	})
}

// BenchmarkIntervalTreeVsNaive restates §V's claim that interval trees make
// the overlap features computable at scale as the three ways this repo can
// answer "which jobs were pending and running at instant t", asked at every
// started job's eligibility instant of a 6 k-job simulated trace: the
// paper's chunked trees (built, then stabbed per instant), the engine
// replay livestate.Build runs (every event applied, the pending and running
// lists copied out per instant), and the whole-trace scan
// (SnapshotAtInstant per instant). Each reports ns per instant.
func BenchmarkIntervalTreeVsNaive(b *testing.B) {
	p := trout.DefaultPipeline(6000, 5)
	tr, _, err := p.GenerateTrace()
	if err != nil {
		b.Fatal(err)
	}
	var rows []trace.Job
	for _, j := range tr.Jobs {
		if j.Start != 0 {
			rows = append(rows, j)
		}
	}
	sort.SliceStable(rows, func(a, c int) bool { return rows[a].Eligible < rows[c].Eligible })
	perInstant := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/instant")
	}

	b.Run("tree", func(b *testing.B) {
		count := 0
		for i := 0; i < b.N; i++ {
			pendIvs, runIvs := map[string][]Interval{}, map[string][]Interval{}
			for k := range tr.Jobs {
				j := &tr.Jobs[k]
				pendIvs[j.Partition] = append(pendIvs[j.Partition], Interval{Lo: j.Eligible, Hi: j.Start, ID: k})
				runIvs[j.Partition] = append(runIvs[j.Partition], Interval{Lo: j.Start, Hi: j.End, ID: k})
			}
			pend, run := map[string]*Tree{}, map[string]*Tree{}
			for name := range pendIvs {
				pend[name], run[name] = BuildChunked(pendIvs[name], 100000, 10000), BuildChunked(runIvs[name], 100000, 10000)
			}
			for k := range rows {
				at := rows[k].Eligible
				pend[rows[k].Partition].StabVisit(at, func(Interval) { count++ })
				run[rows[k].Partition].StabVisit(at, func(Interval) { count++ })
			}
		}
		perInstant(b)
	})
	b.Run("replay", func(b *testing.B) {
		evs := livestate.EventsFromTrace(tr)
		count := 0
		for i := 0; i < b.N; i++ {
			eng, next := livestate.NewEngine(), 0
			for e := range evs {
				if err := eng.ApplyEvent(evs[e]); err != nil {
					b.Fatal(err)
				}
				t := evs[e].Time
				if e+1 < len(evs) && evs[e+1].Time == t {
					continue
				}
				for ; next < len(rows) && rows[next].Eligible == t; next++ {
					pending, running, _ := eng.PendingRunning(t)
					count += len(pending) + len(running)
				}
			}
		}
		perInstant(b)
	})
	b.Run("scan", func(b *testing.B) {
		count := 0
		for i := 0; i < b.N; i++ {
			for k := range rows {
				snap := trout.SnapshotAtInstant(tr, rows[k].Eligible, rows[k])
				count += len(snap.Pending) + len(snap.Running)
			}
		}
		perInstant(b)
	})
}
