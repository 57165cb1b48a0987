package features

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// trainedPredictor fits a small runtime forest on a random trace.
func trainedPredictor(t testing.TB, seed int64) (*RuntimePredictor, slurmsim.PartitionTotals) {
	t.Helper()
	cluster := tinyCluster()
	tot := cluster.Totals("shared")
	tr := randomTrace(rand.New(rand.NewSource(seed)), 600)
	rp, err := TrainRuntimePredictor(tr.Jobs, map[string]slurmsim.PartitionTotals{"shared": tot}, 20, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rp, tot
}

// uncachedSeconds is PredictSeconds as it was before the memo, row layout
// included: the oracle every remembered answer must equal bit for bit.
func uncachedSeconds(rp *RuntimePredictor, j *trace.Job, tot slurmsim.PartitionTotals) float64 {
	v := math.Expm1(rp.Forest.Predict([]float64{
		math.Log1p(float64(j.TimeLimit)),
		math.Log1p(float64(j.ReqCPUs)),
		math.Log1p(j.ReqMemGB),
		float64(j.ReqNodes),
		float64(j.ReqGPUs),
		float64(j.QOS),
		float64(j.Priority),
		float64(tot.CPUs),
		float64(tot.GPUs),
	}))
	if v < 0 {
		return 0
	}
	return v
}

// specJob draws one of 300 job specs, so the nine forest inputs repeat
// across jobs the way a real queue's do.
func specJob(rng *rand.Rand, id int) trace.Job {
	k := rng.Intn(300)
	return trace.Job{
		ID: id, User: 1 + rng.Intn(10), Partition: "shared",
		ReqCPUs: 1 + k%4, ReqMemGB: float64(1 + k%8), ReqNodes: 1 + k%2,
		ReqGPUs: k % 2, QOS: k % 3,
		TimeLimit: 300 * int64(1+k%7), Priority: int64(k),
	}
}

func liveEntries(rp *RuntimePredictor) int {
	n := 0
	for s := range rp.memo {
		for w := range rp.memo[s] {
			if rp.memo[s][w].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestPredictSecondsMatchesUncached: hit, miss and post-eviction answers
// are the uncached evaluation's bits, for repeated specs, keys that share
// one memo set, and non-finite or negative-zero memory requests, from
// eight goroutines at once; and the table never outgrows its constant.
func TestPredictSecondsMatchesUncached(t *testing.T) {
	rp, tot := trainedPredictor(t, 11)
	rng := rand.New(rand.NewSource(12))

	var pool []trace.Job
	for i := 0; i < 400; i++ {
		pool = append(pool, specJob(rng, i))
	}
	// More keys in one set than it has ways: they must evict each other
	// and still answer right.
	first := runtimeInputsOf(&pool[0], tot)
	crowded := 0
	for p := int64(1000); crowded < 3*memoWays; p++ {
		j := pool[0]
		j.Priority = p
		if in := runtimeInputsOf(&j, tot); in.set() == first.set() {
			pool = append(pool, j)
			crowded++
		}
	}
	for _, mem := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0} {
		j := pool[1]
		j.ReqMemGB = mem
		pool = append(pool, j)
	}
	want := make([]uint64, len(pool))
	for i := range pool {
		want[i] = math.Float64bits(uncachedSeconds(rp, &pool[i], tot))
	}
	if nan := uncachedSeconds(rp, &pool[len(pool)-5], tot); !math.IsNaN(nan) {
		t.Fatalf("NaN memory request predicted %v; the forest's NaN route is not under test", nan)
	}

	const workers = 8
	capacity := memoSets * memoWays
	check := func(w int) {
		for k := range pool {
			i := (k*7 + w*13) % len(pool)
			if got := math.Float64bits(rp.PredictSeconds(&pool[i], tot)); got != want[i] {
				t.Errorf("job %d (%+v): PredictSeconds bits %x, uncached %x", i, pool[i], got, want[i])
				return
			}
		}
	}
	flood := func(w int) {
		// 10x capacity distinct keys over the workers, with the pool
		// re-checked while its entries are being evicted.
		for k := 0; k < 10*capacity/workers; k++ {
			j := trace.Job{Partition: "shared", ReqCPUs: 1 + k%4, ReqMemGB: 2, ReqNodes: 1,
				TimeLimit: 600, Priority: int64(1_000_000 + w*10*capacity + k)}
			if got, ref := rp.PredictSeconds(&j, tot), uncachedSeconds(rp, &j, tot); math.Float64bits(got) != math.Float64bits(ref) {
				t.Errorf("flood key %d/%d: PredictSeconds %v, uncached %v", w, k, got, ref)
				return
			}
			if k%4096 == 0 {
				check(w)
			}
		}
	}
	for _, phase := range []func(int){check, check, flood, check} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				phase(w)
			}(w)
		}
		wg.Wait()
	}

	if n := liveEntries(rp); n > capacity || n < capacity/2 {
		t.Fatalf("%d live entries after flooding a %d-entry memo", n, capacity)
	}
	if bytes := unsafe.Sizeof(*rp) + uintptr(capacity)*unsafe.Sizeof(memoEntry{}); bytes > 1<<20 {
		t.Fatalf("a full memo holds %d bytes, over the 1 MB it is documented to stay under", bytes)
	}
	if rp.Evals() < uint64(10*capacity) {
		t.Fatalf("Evals() = %d after %d distinct keys", rp.Evals(), 10*capacity)
	}
}

// TestSnapshotRowEvaluatesOncePerSpec: on a 1,000-job partition the first
// SnapshotRow builds the queue's column, evaluating the forest once per
// distinct spec; the second builds nothing and evaluates nothing, with the
// same row bits as a predictor that remembers nothing.
func TestSnapshotRowEvaluatesOncePerSpec(t *testing.T) {
	rp, tot := trainedPredictor(t, 21)
	cluster := tinyCluster()
	rng := rand.New(rand.NewSource(22))
	snap := &Snapshot{Now: 100_000, Target: specJob(rng, 5000)}
	snap.Target.Submit = snap.Now - 10
	distinct := map[runtimeInputs]bool{runtimeInputsOf(&snap.Target, tot): true}
	for i := 0; i < 1000; i++ {
		j := specJob(rng, i+1)
		j.Submit = snap.Now - int64(rng.Intn(2*86400))
		distinct[runtimeInputsOf(&j, tot)] = true
		if i < 900 {
			snap.Pending = append(snap.Pending, j)
		} else {
			snap.Running = append(snap.Running, j)
		}
		if i%10 == 0 {
			snap.History = append(snap.History, j)
		}
	}
	if len(distinct) < 100 || len(distinct) > 900 {
		t.Fatalf("%d distinct specs over 1,001 jobs: the fixture no longer repeats specs", len(distinct))
	}

	fresh := &RuntimePredictor{Forest: rp.Forest}
	want, err := SnapshotRow(snap, &cluster, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for call, wantEvals := range []uint64{uint64(len(distinct)), 0} {
		before, builds, walks := rp.Evals(), rp.cols.builds.Load(), rp.cols.walks.Load()
		row, err := SnapshotRow(snap, &cluster, rp)
		if err != nil {
			t.Fatal(err)
		}
		if got := rp.Evals() - before; got != wantEvals {
			t.Fatalf("call %d made %d forest evaluations, want %d", call, got, wantEvals)
		}
		if got, want := rp.cols.builds.Load()-builds, uint64(1-call); got != want {
			t.Fatalf("call %d built %d queue columns, want %d", call, got, want)
		}
		if got, want := rp.cols.walks.Load()-walks, uint64(1-call); got != want {
			t.Fatalf("call %d walked %d columns, want %d", call, got, want)
		}
		for f := range row {
			if math.Float64bits(row[f]) != math.Float64bits(want[f]) {
				t.Fatalf("call %d feature %q: %v, fresh predictor %v", call, Names[f], row[f], want[f])
			}
		}
	}
	// Par Queue Pred Timelimit sums 900 uncached evaluations, in slice order.
	var queued float64
	for i := range snap.Pending {
		queued += uncachedSeconds(rp, &snap.Pending[i], tot) / 60
	}
	if got := want[fidx(t, "Par Queue Pred Timelimit")]; math.Float64bits(got) != math.Float64bits(queued) {
		t.Fatalf("Par Queue Pred Timelimit %v, uncached sum %v", got, queued)
	}

	if raceEnabled {
		return // the detector's instrumentation allocates
	}
	// Warm, a row allocates only itself: no column, no ahead block, no
	// forest input per walked job, and nothing to deduplicate an
	// ID-ascending history with.
	if n := want[fidx(t, "User Jobs Past Day")]; n < 2 {
		t.Fatalf("the target's user has %v past-day jobs; the user block is not under test", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = SnapshotRow(snap, &cluster, rp) }); allocs != 1 {
		t.Fatalf("warm SnapshotRow makes %v allocations over 1,000 walked jobs, want 1 (the row)", allocs)
	}
	j := &snap.Pending[0]
	if allocs := testing.AllocsPerRun(20, func() { in := runtimeInputsOf(j, tot); _ = rp.evaluate(&in) }); allocs != 0 {
		t.Fatalf("an uncached evaluation makes %v allocations", allocs)
	}
}

// TestPredictorsDoNotShareAnswers: two forests asked about the same jobs,
// interleaved, each return their own values on miss and on hit.
func TestPredictorsDoNotShareAnswers(t *testing.T) {
	a, tot := trainedPredictor(t, 31)
	b, _ := trainedPredictor(t, 32)
	rng := rand.New(rand.NewSource(33))
	differ := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			j := specJob(rng, i)
			wa, wb := uncachedSeconds(a, &j, tot), uncachedSeconds(b, &j, tot)
			if ga, gb := a.PredictSeconds(&j, tot), b.PredictSeconds(&j, tot); ga != wa || gb != wb {
				t.Fatalf("job %+v: predictors returned %v and %v, their forests say %v and %v", j, ga, gb, wa, wb)
			}
			if wa != wb {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("the two forests agree on every job; the test cannot tell them apart")
	}
}
