package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// walkRow is SnapshotRow as it was before queue columns: every row asks the
// runtime predictor about each same-partition queued and running job. It is
// the oracle the column path must match bit for bit.
func walkRow(snap *Snapshot, cluster *slurmsim.ClusterSpec, rp *RuntimePredictor) ([]float64, error) {
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
			walkAddQueued(&agg, j, o, rp.PredictSeconds(o, tot))
		}
	}
	for i := range snap.Running {
		if o := &snap.Running[i]; o.Partition == j.Partition && o.ID != j.ID {
			walkAddRunning(&agg, o, rp.PredictSeconds(o, tot))
		}
	}

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
		walkAdd(&user, o)
	}

	row := make([]float64, NumFeatures)
	agg.fill(row, j, tot, user, rp.PredictSeconds(j, tot))
	return row, nil
}

func walkAdd(a *jobSums, o *trace.Job) {
	a.jobs++
	a.cpus += float64(o.ReqCPUs)
	a.mem += o.ReqMemGB
	a.nodes += float64(o.ReqNodes)
	a.limit += float64(o.TimeLimit) / 60
}

func walkAddQueued(a *queueAgg, target, o *trace.Job, predSeconds float64) {
	walkAdd(&a.queued, o)
	a.queuedPred += predSeconds / 60
	if o.Priority > target.Priority {
		walkAdd(&a.ahead, o)
	}
}

func walkAddRunning(a *queueAgg, o *trace.Job, predSeconds float64) {
	walkAdd(&a.running, o)
	a.runningPred += predSeconds / 60
}

// partsCluster has three partitions of different totals, so one queue
// holds three columns and the forest sees three (CPUs, GPUs) inputs.
func partsCluster() slurmsim.ClusterSpec {
	return slurmsim.ClusterSpec{
		Nodes: []slurmsim.NodeSpec{{CPUs: 4, MemGB: 8}, {CPUs: 4, MemGB: 8}, {CPUs: 16, MemGB: 64, GPUs: 4}},
		Partitions: []slurmsim.PartitionSpec{
			{Name: "shared", Tier: 1, NodeIDs: []int{0, 1}},
			{Name: "gpu", Tier: 1, NodeIDs: []int{2}},
			{Name: "debug", Tier: 2, NodeIDs: []int{0}},
		},
	}
}

var partNames = []string{"shared", "gpu", "debug"}

// oddMem are memory requests whose bits a sum must carry through: NaN,
// both zeros, infinities and a value that rounds.
var oddMem = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 0.1}

// randomQueue draws a snapshot at instant 100,000 over partNames: IDs from
// a small range, so duplicates (within and across the two lists) occur;
// specs that repeat; one memory request in eight from oddMem.
func randomQueue(rng *rand.Rand, np, nr int) *Snapshot {
	snap := &Snapshot{Now: 100_000}
	draw := func() trace.Job {
		j := specJob(rng, 1+rng.Intn(3*(np+nr)+1))
		j.Partition = partNames[rng.Intn(len(partNames))]
		j.Submit = snap.Now - int64(rng.Intn(2*86400))
		if rng.Intn(8) == 0 {
			j.ReqMemGB = oddMem[rng.Intn(len(oddMem))]
		}
		return j
	}
	for i := 0; i < np; i++ {
		snap.Pending = append(snap.Pending, draw())
	}
	for i := 0; i < nr; i++ {
		snap.Running = append(snap.Running, draw())
	}
	snap.History = append(append([]trace.Job(nil), snap.Pending...), snap.Running...)
	return snap
}

// targets are the rows a test takes on a queue: a what-if job per
// partition, and members of Pending and Running (GET /predict?job= predicts
// a job that is itself in the queue and must not count itself).
func targets(rng *rand.Rand, snap *Snapshot) []trace.Job {
	var out []trace.Job
	for _, p := range partNames {
		j := specJob(rng, 1_000_000+len(out))
		j.Partition, j.Submit = p, snap.Now-10
		out = append(out, j)
	}
	for _, list := range [][]trace.Job{snap.Pending, snap.Running} {
		for k := 0; k < 3 && len(list) > 0; k++ {
			out = append(out, list[rng.Intn(len(list))])
		}
	}
	return out
}

// sameRow fails unless every column of got has want's bits.
func sameRow(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for f := range want {
		if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
			t.Fatalf("%s: feature %q = %v (%#x), walk %v (%#x)", what, Names[f],
				got[f], math.Float64bits(got[f]), want[f], math.Float64bits(want[f]))
		}
	}
}

// checkRow takes target's row on snap through SnapshotRow and through the
// walk oracle and compares every column.
func checkRow(t testing.TB, what string, snap *Snapshot, target trace.Job, cluster *slurmsim.ClusterSpec, rp *RuntimePredictor) {
	t.Helper()
	s := *snap
	s.Target = target
	got, err := SnapshotRow(&s, cluster, rp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := walkRow(&s, cluster, rp)
	if err != nil {
		t.Fatal(err)
	}
	sameRow(t, what, got, want)
}

// TestSnapshotRowMatchesWalk is the differential test of the queue column
// against the per-job walk: seeded queues over three partitions, empty
// pending or running lists, duplicate IDs, odd memory requests, in-queue
// and what-if targets, each row taken cold and warm.
func TestSnapshotRowMatchesWalk(t *testing.T) {
	rp, _ := trainedPredictor(t, 41)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(42))
	for _, size := range [][2]int{{0, 0}, {0, 40}, {60, 0}, {1, 1}, {200, 50}, {900, 120}} {
		for rep := 0; rep < 3; rep++ {
			snap := randomQueue(rng, size[0], size[1])
			for k, target := range targets(rng, snap) {
				for pass := 0; pass < 2; pass++ {
					checkRow(t, fmt.Sprintf("queue %v rep %d target %d pass %d", size, rep, k, pass), snap, target, &cluster, rp)
				}
			}
		}
	}
}

// TestQueueColumnsPerPredictorAndQueue: two predictors alternating on one
// queue each sum their own forest's answers, and ten queues cycled through
// one predictor (more than it has slots) are each summed from their own
// jobs, whether their column is resident or was evicted.
func TestQueueColumnsPerPredictorAndQueue(t *testing.T) {
	a, _ := trainedPredictor(t, 51)
	b, _ := trainedPredictor(t, 52)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(53))

	snap := randomQueue(rng, 300, 60)
	// A NaN prediction would make both forests' sums the same NaN.
	for _, list := range [][]trace.Job{snap.Pending, snap.Running} {
		for i := range list {
			if m := list[i].ReqMemGB; math.IsNaN(m) || math.IsInf(m, 0) {
				list[i].ReqMemGB = 1
			}
		}
	}
	tg := targets(rng, snap)
	differ := false
	for round := 0; round < 2; round++ {
		for k, target := range tg {
			checkRow(t, fmt.Sprintf("predictor a round %d target %d", round, k), snap, target, &cluster, a)
			checkRow(t, fmt.Sprintf("predictor b round %d target %d", round, k), snap, target, &cluster, b)
			s := *snap
			s.Target = target
			ra, _ := SnapshotRow(&s, &cluster, a)
			rb, _ := SnapshotRow(&s, &cluster, b)
			f := fidx(t, "Par Queue Pred Timelimit")
			differ = differ || math.Float64bits(ra[f]) != math.Float64bits(rb[f])
		}
	}
	if !differ {
		t.Fatal("the two forests sum to the same queue columns; the test cannot tell them apart")
	}

	queues := make([]*Snapshot, queueSlots+2)
	for i := range queues {
		queues[i] = randomQueue(rng, 50+10*i, 10+i)
	}
	builds := a.cols.builds.Load()
	for round := 0; round < 3; round++ {
		for i, q := range queues {
			q.Target = specJob(rng, 2_000_000)
			q.Target.Partition = "shared"
			checkRow(t, fmt.Sprintf("round %d queue %d", round, i), q, q.Target, &cluster, a)
		}
	}
	// Cycling ten queues through eight LRU slots evicts each before it
	// comes round again, so every row builds its column.
	if got, want := a.cols.builds.Load()-builds, uint64(3*len(queues)); got != want {
		t.Fatalf("%d column builds over 3 rounds of %d queues, want %d", got, len(queues), want)
	}
	// The eight most recent queues are resident: asking again builds none.
	builds = a.cols.builds.Load()
	for _, q := range queues[len(queues)-queueSlots:] {
		checkRow(t, "resident queue", q, q.Target, &cluster, a)
	}
	if got := a.cols.builds.Load() - builds; got != 0 {
		t.Fatalf("resident queues built %d columns", got)
	}
}

// TestQueueIdentityReslicedAndAppended: the column is keyed by the identity
// of the Pending/Running arrays, so a re-sliced queue (shorter, or starting
// later) and one appended to in the same backing array are new queues,
// summed from their own jobs.
func TestQueueIdentityReslicedAndAppended(t *testing.T) {
	rp, _ := trainedPredictor(t, 61)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(62))
	snap := randomQueue(rng, 200, 40)
	snap.Pending = append(make([]trace.Job, 0, len(snap.Pending)+8), snap.Pending...)
	target := specJob(rng, 3_000_000)
	target.Partition = snap.Pending[0].Partition

	checkRow(t, "whole queue", snap, target, &cluster, rp)
	appended := append(snap.Pending, snap.Pending[0], snap.Pending[0])
	if &appended[0] != &snap.Pending[0] {
		t.Fatal("the append did not reuse the backing array; the in-place case is not under test")
	}
	for _, v := range []struct {
		name    string
		pending []trace.Job
	}{
		{"re-sliced shorter", snap.Pending[:len(snap.Pending)-1]},
		{"re-sliced later", snap.Pending[1:]},
		{"appended in place", appended},
	} {
		s := *snap
		s.Pending = v.pending
		before := rp.cols.builds.Load()
		checkRow(t, v.name, &s, target, &cluster, rp)
		if rp.cols.builds.Load() == before {
			t.Fatalf("%s: no new column was built", v.name)
		}
	}
	checkRow(t, "whole queue again", snap, target, &cluster, rp)
}

// TestSnapshotRowConcurrent: goroutines take rows for targets in all three
// partitions of one queue at once, cold and warm, against the walk's rows.
// Under -race this is the check on the column table's locking.
func TestSnapshotRowConcurrent(t *testing.T) {
	rp, _ := trainedPredictor(t, 71)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(72))
	snap := randomQueue(rng, 600, 100)
	tg := targets(rng, snap)
	want := make([][]float64, len(tg))
	ref := &RuntimePredictor{Forest: rp.Forest}
	for k := range tg {
		s := *snap
		s.Target = tg[k]
		var err error
		if want[k], err = walkRow(&s, &cluster, ref); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 4*len(tg); n++ {
				k := (n + w) % len(tg)
				s := *snap
				s.Target = tg[k]
				row, err := SnapshotRow(&s, &cluster, rp)
				if err != nil {
					t.Error(err)
					return
				}
				for f := range row {
					if math.Float64bits(row[f]) != math.Float64bits(want[k][f]) {
						t.Errorf("worker %d target %d feature %q: %v, walk %v", w, k, Names[f], row[f], want[k][f])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := rp.cols.builds.Load(); got != uint64(len(partNames)) {
		t.Fatalf("%d columns built for one queue over %d partitions", got, len(partNames))
	}
}

// fuzzPredictor is trained once per process: FuzzSnapshotRow's inputs vary
// the queue, not the forest.
var fuzzPredictor struct {
	once sync.Once
	rp   *RuntimePredictor
}

// fuzzJob encodes one queued job the way FuzzSnapshotRow decodes it.
func fuzzJob(list, part, id, user, prio, cpus, nodes, limit byte, mem float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{list, part, id, user, prio, cpus, nodes, limit}, math.Float64bits(mem))
}

// FuzzSnapshotRow: a queue decoded from fuzzer bytes (16 per job: list,
// partition, ID, user, priority, CPUs, nodes, time limit, then the raw
// bits of the memory request) gives the walk's row for a what-if target or
// a queue member, cold, warm, and on the queue re-sliced.
func FuzzSnapshotRow(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), append(fuzzJob(0, 0, 1, 1, 16, 2, 1, 3, 2.5), fuzzJob(1, 0, 1, 1, 32, 1, 1, 1, math.NaN())...))
	f.Add(uint16(0x105), append(append(fuzzJob(3, 1, 7, 0, 128, 4, 2, 8, math.Copysign(0, -1)),
		fuzzJob(0, 1, 7, 0, 127, 4, 2, 8, math.Inf(1))...), fuzzJob(2, 2, 9, 1, 0, 0, 0, 0, 0.1)...))
	fuzzPredictor.once.Do(func() { fuzzPredictor.rp, _ = trainedPredictor(f, 81) })
	rp := fuzzPredictor.rp
	cluster := partsCluster()
	f.Fuzz(func(t *testing.T, sel uint16, data []byte) {
		snap := &Snapshot{Now: 100_000}
		for ; len(data) >= 16; data = data[16:] {
			j := trace.Job{
				ID: int(data[2]), User: int(data[3] % 4), Partition: partNames[int(data[1])%len(partNames)],
				Submit: snap.Now - 1000*int64(data[4]), Priority: int64(int8(data[4])),
				ReqCPUs: int(data[5]), ReqNodes: int(data[6]), TimeLimit: 60 * int64(data[7]),
				ReqMemGB: math.Float64frombits(binary.LittleEndian.Uint64(data[8:16])),
			}
			if data[0]&1 == 0 {
				snap.Pending = append(snap.Pending, j)
			} else {
				snap.Running = append(snap.Running, j)
			}
			if data[0]&2 != 0 {
				snap.History = append(snap.History, j)
			}
		}
		var target trace.Job
		members := append(append([]trace.Job(nil), snap.Pending...), snap.Running...)
		if sel&1 == 1 && len(members) > 0 {
			target = members[int(sel>>1)%len(members)]
		} else {
			target = trace.Job{ID: 1 << 20, User: int(sel>>1) % 4, Partition: partNames[int(sel>>3)%len(partNames)],
				Submit: snap.Now - 5, Priority: int64(int8(sel >> 5)), ReqCPUs: 2, ReqNodes: 1, TimeLimit: 3600, ReqMemGB: 4}
		}
		checkRow(t, "cold", snap, target, &cluster, rp)
		checkRow(t, "warm", snap, target, &cluster, rp)
		if len(snap.Pending) > 0 {
			s := *snap
			s.Pending = s.Pending[1:]
			checkRow(t, "re-sliced", &s, target, &cluster, rp)
		}
	})
}
