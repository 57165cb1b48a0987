package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// partsCluster has four partitions of different totals, so one queue
// holds four columns and the forest sees four (CPUs, GPUs) inputs.
func partsCluster() slurmsim.ClusterSpec {
	return slurmsim.ClusterSpec{
		Nodes: []slurmsim.NodeSpec{{CPUs: 4, MemGB: 8}, {CPUs: 4, MemGB: 8}, {CPUs: 16, MemGB: 64, GPUs: 4}},
		Partitions: []slurmsim.PartitionSpec{
			{Name: "shared", Tier: 1, NodeIDs: []int{0, 1}},
			{Name: "gpu", Tier: 1, NodeIDs: []int{2}},
			{Name: "debug", Tier: 2, NodeIDs: []int{0}},
			{Name: "standby", Tier: 3, NodeIDs: []int{0, 1, 2}},
		},
	}
}

var partNames = []string{"shared", "gpu", "debug", "standby"}

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
// partition; what-ifs whose priority ties a pending job's or sits just
// above or below it, the ranks either side of that job; and members of
// Pending and Running (GET /predict?job= predicts a job that is itself in
// the queue and must not count itself).
func targets(rng *rand.Rand, snap *Snapshot) []trace.Job {
	var out []trace.Job
	whatIf := func(partition string) trace.Job {
		j := specJob(rng, 1_000_000+len(out))
		j.Partition, j.Submit = partition, snap.Now-10
		return j
	}
	for _, p := range partNames {
		out = append(out, whatIf(p))
	}
	for k := 0; k < 3 && len(snap.Pending) > 0; k++ {
		q := &snap.Pending[rng.Intn(len(snap.Pending))]
		for _, d := range []int64{0, 1, -1} {
			j := whatIf(q.Partition)
			j.Priority = q.Priority + d
			out = append(out, j)
		}
	}
	for _, list := range [][]trace.Job{snap.Pending, snap.Running} {
		for k := 0; k < 3 && len(list) > 0; k++ {
			out = append(out, list[rng.Intn(len(list))])
		}
	}
	return out
}

// inColumn reports whether j's ID is among the pending or running jobs of
// its partition: a row for it walks the column.
func inColumn(snap *Snapshot, j *trace.Job) bool {
	for _, list := range [][]trace.Job{snap.Pending, snap.Running} {
		for i := range list {
			if list[i].Partition == j.Partition && list[i].ID == j.ID {
				return true
			}
		}
	}
	return false
}

// historyOrders are the orders a row must not depend on: as drawn (out of
// order, duplicate IDs), ID-sorted and unique (the engine's form),
// ID-sorted with the duplicates kept, and descending.
func historyOrders(h []trace.Job) [][]trace.Job {
	byID := func(a, b trace.Job) int { return a.ID - b.ID }
	sorted := slices.Clone(h)
	slices.SortStableFunc(sorted, byID)
	unique := slices.CompactFunc(slices.Clone(sorted), func(a, b trace.Job) bool { return a.ID == b.ID })
	desc := slices.Clone(sorted)
	slices.Reverse(desc)
	return [][]trace.Job{h, unique, sorted, desc}
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
// and its ahead memo against the per-job walk: seeded queues over four
// partitions, empty pending or running lists, duplicate IDs, repeated
// priorities, odd memory requests, in-queue and what-if targets (ties and
// near-ties of a queued job's priority among them), each row taken cold
// and warm, with the user's history in four orders.
func TestSnapshotRowMatchesWalk(t *testing.T) {
	rp, _ := trainedPredictor(t, 41)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(42))
	for _, size := range [][2]int{{0, 0}, {0, 40}, {60, 0}, {1, 1}, {200, 50}, {900, 120}} {
		for rep := 0; rep < 3; rep++ {
			snap := randomQueue(rng, size[0], size[1])
			tg := targets(rng, snap)
			for h, hist := range historyOrders(snap.History) {
				s := *snap
				s.History = hist
				for k, target := range tg {
					for pass := 0; pass < 2; pass++ {
						checkRow(t, fmt.Sprintf("queue %v rep %d history %d target %d pass %d", size, rep, h, k, pass), &s, target, &cluster, rp)
					}
				}
			}
		}
	}
}

// TestGridWalksOncePerPartition: the what-if grid behind POST
// /predict/batch — one job in four partitions at four time limits — has one
// rank per partition, so cold it walks each partition's column once and
// warm not at all, with every row the walk's.
func TestGridWalksOncePerPartition(t *testing.T) {
	rp, _ := trainedPredictor(t, 91)
	cluster := partsCluster()
	rng := rand.New(rand.NewSource(92))
	snap := randomQueue(rng, 900, 120)
	job := specJob(rng, 4_000_000)
	job.Submit = snap.Now - 10
	if len(partNames) != 4 {
		t.Fatalf("%d partitions; the grid is 4 x 4", len(partNames))
	}
	for pass, want := range []uint64{4, 0} {
		walks := rp.cols.walks.Load()
		for _, p := range partNames {
			for _, limit := range []int64{1800, 3600, 7200, 14400} {
				j := job
				j.Partition, j.TimeLimit = p, limit
				checkRow(t, fmt.Sprintf("pass %d %s limit %d", pass, p, limit), snap, j, &cluster, rp)
			}
		}
		if got := rp.cols.walks.Load() - walks; got != want {
			t.Fatalf("pass %d: the 16-job grid walked %d columns, want %d", pass, got, want)
		}
	}
}

// TestQueueColumnsPerPredictorAndQueue: two predictors alternating on one
// queue each sum their own forest's answers and walk for their own ahead
// blocks, and ten queues cycled through one predictor (more than it has
// slots) are each summed from their own jobs, whether their column is
// resident or was evicted.
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
		wa, wb := a.cols.walks.Load(), b.cols.walks.Load()
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
		// b asks what a asked, right after it: a block shared across
		// predictors would save b walks.
		if ga, gb := a.cols.walks.Load()-wa, b.cols.walks.Load()-wb; ga != gb || (round == 0 && ga == 0) {
			t.Fatalf("round %d: predictor a walked %d columns, b %d", round, ga, gb)
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

// TestSnapshotRowConcurrent: goroutines take rows for targets in all four
// partitions of one queue at once, cold and warm, several of them on one
// rank of one column, against the walk's rows. Under -race this is the
// check on the locking of the column table and of each column's ahead
// memo. Afterwards only the in-queue targets walk.
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
	// Workers start together and go in pairs through the targets in the
	// same order, so the two of a pair miss on the same rank at once.
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for n := 0; n < 4*len(tg); n++ {
				k := (n + w/2) % len(tg)
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
	close(start)
	wg.Wait()
	if got := rp.cols.builds.Load(); got != uint64(len(partNames)) {
		t.Fatalf("%d columns built for one queue over %d partitions", got, len(partNames))
	}
	walks, in := rp.cols.walks.Load(), uint64(0)
	for k := range tg {
		checkRow(t, fmt.Sprintf("warm target %d", k), snap, tg[k], &cluster, rp)
		if inColumn(snap, &tg[k]) {
			in++
		}
	}
	if got := rp.cols.walks.Load() - walks; got != in || in == 0 {
		t.Fatalf("a warm pass over %d targets walked %d columns, want %d (the in-queue targets)", len(tg), got, in)
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
// bits of the memory request; bit 1 of list also files the job in History,
// in byte order) gives the walk's row for a what-if target or a queue
// member, cold, warm, at the priorities just above and below, and on the
// queue re-sliced.
func FuzzSnapshotRow(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(3), append(fuzzJob(0, 0, 1, 1, 16, 2, 1, 3, 2.5), fuzzJob(1, 0, 1, 1, 32, 1, 1, 1, math.NaN())...))
	f.Add(uint16(0x105), append(append(fuzzJob(3, 1, 7, 0, 128, 4, 2, 8, math.Copysign(0, -1)),
		fuzzJob(0, 1, 7, 0, 127, 4, 2, 8, math.Inf(1))...), fuzzJob(2, 2, 9, 1, 0, 0, 0, 0, 0.1)...))
	// A what-if in "shared" for user 0 at priority 2 (sel 0x40): it ties
	// the first queued job, sits just above the second and just below the
	// third; the history's IDs descend, repeat and come back.
	f.Add(uint16(0x40), append(append(append(append(fuzzJob(2, 0, 9, 0, 2, 1, 1, 1, 1),
		fuzzJob(2, 0, 5, 0, 1, 2, 1, 2, 2)...), fuzzJob(2, 0, 7, 0, 3, 3, 1, 3, 3)...),
		fuzzJob(2, 0, 5, 0, 1, 4, 1, 4, 4)...), fuzzJob(2, 0, 8, 0, 2, 1, 1, 5, 5)...))
	// The same queue asked about a member (sel 3: the second job, ID 5,
	// which is also queued again under its ID).
	f.Add(uint16(3), append(append(append(fuzzJob(2, 0, 9, 0, 2, 1, 1, 1, 1),
		fuzzJob(2, 0, 5, 0, 1, 2, 1, 2, 2)...), fuzzJob(3, 0, 7, 0, 3, 3, 1, 3, 3)...),
		fuzzJob(2, 0, 5, 0, 1, 4, 1, 4, 4)...))
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
		for _, d := range []int64{1, -1} {
			near := target
			near.Priority += d
			checkRow(t, fmt.Sprintf("priority %+d", d), snap, near, &cluster, rp)
		}
		if len(snap.Pending) > 0 {
			s := *snap
			s.Pending = s.Pending[1:]
			checkRow(t, "re-sliced", &s, target, &cluster, rp)
		}
	})
}
