// The Table II dataset is the live-state engine replaying a trace
// (livestate.Build). These tests check its rows against hand-computed
// aggregates and a quadratic scan; the interval-tree oracle and the
// fuzzed replay ≡ scan check live in internal/intervaltree.
package features_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/metrics"
	"repro/internal/slurmsim"
	"repro/internal/trace"
)

// handTrace builds three jobs whose queue-state aggregates can be checked
// by hand (see comments inline in the test).
func handTrace() *trace.Trace {
	return &trace.Trace{Jobs: []trace.Job{
		{ID: 1, User: 1, Partition: "shared", State: trace.StateCompleted,
			Submit: 100, Eligible: 100, Start: 100, End: 1000,
			ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 1200, Priority: 10},
		{ID: 2, User: 1, Partition: "shared", State: trace.StateCompleted,
			Submit: 150, Eligible: 150, Start: 500, End: 800,
			ReqCPUs: 2, ReqMemGB: 4, ReqNodes: 1, TimeLimit: 600, Priority: 20},
		{ID: 3, User: 1, Partition: "shared", State: trace.StateCompleted,
			Submit: 200, Eligible: 200, Start: 600, End: 900,
			ReqCPUs: 1, ReqMemGB: 2, ReqNodes: 1, TimeLimit: 300, Priority: 5},
	}}
}

func TestHandComputedAggregates(t *testing.T) {
	cluster := features.TinyCluster()
	ds, err := livestate.Build(handTrace(), &cluster, features.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Fatalf("%d samples", ds.Len())
	}
	// Jobs sorted by eligibility: job 3 is index 2.
	row := ds.X[2]
	// At t=200: job 2 is pending (150 ≤ 200 < 500), job 1 is running
	// (100 ≤ 200 < 1000). Job 3 itself is excluded from queue counts.
	checks := map[string]float64{
		"Priority":              5,
		"Timelimit Raw":         5, // 300 s
		"Req CPUs":              1,
		"Req Mem":               2,
		"Req Nodes":             1,
		"Par Jobs Queue":        1,
		"Par CPUs Queue":        2,
		"Par Mem Queue":         4,
		"Par Nodes Queue":       1,
		"Par Timelimit Queue":   10,
		"Par Jobs Ahead":        1, // job 2 has priority 20 > 5
		"Par CPUs Ahead":        2,
		"Par Jobs Running":      1,
		"Par CPUs Running":      4,
		"Par Mem Running":       8,
		"Par Nodes Running":     1,
		"Par Timelimit Running": 20,
		"User Jobs Past Day":    2, // jobs 1, 2 submitted before t=200
		"User CPUs Past Day":    6,
		"User Mem Past Day":     12,
		"User Nodes Past Day":   2,
		"Par Total Nodes":       2,
		"Par Total CPU":         8,
		"Par CPU per Node":      4,
		"Par Mem per Node":      8,
		"Par Total GPU":         0,
	}
	for name, want := range checks {
		if got := row[features.Fidx(t, name)]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Queue target: job 3 waited 400 s = 6.667 min.
	if math.Abs(ds.QueueMinutes[2]-400.0/60) > 1e-9 {
		t.Fatalf("queue minutes = %v", ds.QueueMinutes[2])
	}
}

func TestFirstJobSeesEmptyQueue(t *testing.T) {
	cluster := features.TinyCluster()
	ds, err := livestate.Build(handTrace(), &cluster, features.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	row := ds.X[0] // job 1, eligible first at t=100, started instantly
	for _, name := range []string{"Par Jobs Queue", "Par Jobs Ahead", "Par Jobs Running", "User Jobs Past Day"} {
		if got := row[features.Fidx(t, name)]; got != 0 {
			t.Errorf("%s = %v for the first job, want 0", name, got)
		}
	}
}

// TestBuildNeverStartedRecord: job 2 never started (Start 0) and was
// cancelled at 400. It is pending over [150, 400) — job 3, eligible at 200,
// queues behind it — and never running: job 1, eligible at 100 before job
// 2 was even submitted, sees an empty partition. Job 2 gets no row and no
// label, and the runtime forest is the one trained on jobs 1 and 3 alone.
// A still-running record (Start set, End 0) runs for good.
func TestBuildNeverStartedRecord(t *testing.T) {
	tr := handTrace()
	tr.Jobs[1].Start, tr.Jobs[1].End, tr.Jobs[1].State = 0, 400, trace.StateCancelled
	cluster := features.TinyCluster()
	ds, err := livestate.Build(tr, &cluster, features.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Jobs[0].ID != 1 || ds.Jobs[1].ID != 3 || len(ds.PredRuntime) != 2 {
		t.Fatalf("rows for jobs %v; want 1 and 3 only", ds.Jobs)
	}
	for i, want := range []float64{0, 400.0 / 60} {
		if ds.QueueMinutes[i] != want {
			t.Fatalf("job %d label %v minutes, want %v", ds.Jobs[i].ID, ds.QueueMinutes[i], want)
		}
	}
	for name, want := range map[string]float64{"Par Jobs Queue": 0, "Par Jobs Running": 0} {
		if got := ds.X[0][features.Fidx(t, name)]; got != want {
			t.Errorf("job 1: %s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{"Par Jobs Queue": 1, "Par CPUs Queue": 2, "Par Jobs Ahead": 1, "Par Jobs Running": 1, "Par CPUs Running": 4} {
		if got := ds.X[1][features.Fidx(t, name)]; got != want {
			t.Errorf("job 3: %s = %v, want %v", name, got, want)
		}
	}
	started := []trace.Job{tr.Jobs[0], tr.Jobs[2]}
	ref, err := features.TrainRuntimePredictor(started, map[string]slurmsim.PartitionTotals{"shared": cluster.Totals("shared")}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ds.Runtime.Bytes()
	want, _ := ref.Bytes()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the runtime forest was not trained on exactly the started jobs")
	}

	// Job 1 still running at capture: job 3 counts it, and the forest
	// does not learn a runtime for it.
	tr = handTrace()
	tr.Jobs[0].End = 0
	if ds, err = livestate.Build(tr, &cluster, features.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := ds.X[2][features.Fidx(t, "Par Jobs Running")]; got != 1 {
		t.Fatalf("job 3 sees %v running jobs, want 1 (job 1 runs to infinity)", got)
	}
	if ref, err = features.TrainRuntimePredictor(tr.Jobs[1:], map[string]slurmsim.PartitionTotals{"shared": cluster.Totals("shared")}, 50, 1); err != nil {
		t.Fatal(err)
	}
	got, _ = ds.Runtime.Bytes()
	want, _ = ref.Bytes()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the runtime forest learned a still-running job")
	}
}

// TestAggregatesMatchNaive is the differential test: the replay's
// aggregates must equal a quadratic scan.
func TestAggregatesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := features.RandomTrace(rng, 300)
	cluster := features.TinyCluster()
	ds, err := livestate.Build(tr, &cluster, features.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	iQ := features.Fidx(t, "Par Jobs Queue")
	iA := features.Fidx(t, "Par Jobs Ahead")
	iR := features.Fidx(t, "Par Jobs Running")
	iQC := features.Fidx(t, "Par CPUs Queue")
	for i := range ds.Jobs {
		j := &ds.Jobs[i]
		tt := j.Eligible
		var q, a, r, qc float64
		for k := range ds.Jobs {
			if k == i {
				continue
			}
			o := &ds.Jobs[k]
			if o.Eligible <= tt && tt < o.Start {
				q++
				qc += float64(o.ReqCPUs)
				if o.Priority > j.Priority {
					a++
				}
			}
		}
		for k := range ds.Jobs {
			if k == i {
				continue
			}
			o := &ds.Jobs[k]
			if o.Start <= tt && tt < o.End {
				r++
			}
		}
		if ds.X[i][iQ] != q || ds.X[i][iA] != a || ds.X[i][iR] != r || ds.X[i][iQC] != qc {
			t.Fatalf("job %d: replay (q=%v a=%v r=%v qc=%v) vs naive (q=%v a=%v r=%v qc=%v)",
				j.ID, ds.X[i][iQ], ds.X[i][iA], ds.X[i][iR], ds.X[i][iQC], q, a, r, qc)
		}
	}
}

func TestRuntimePredictorSane(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := features.RandomTrace(rng, 500)
	cluster := features.TinyCluster()
	ds, err := livestate.Build(tr, &cluster, features.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	actual := make([]float64, ds.Len())
	for i := range ds.Jobs {
		if ds.PredRuntime[i] < 0 {
			t.Fatalf("negative predicted runtime %v", ds.PredRuntime[i])
		}
		actual[i] = float64(ds.Jobs[i].RuntimeSeconds())
	}
	// The forest should at least correlate positively with the truth on
	// the training half (runtimes here are correlated with time limits).
	half := ds.Len() / 2
	r := metrics.Pearson(ds.PredRuntime[:half], actual[:half])
	if r < 0.1 {
		t.Fatalf("runtime predictor correlation %v", r)
	}
}

func TestBuildErrors(t *testing.T) {
	cluster := features.TinyCluster()
	if _, err := livestate.Build(&trace.Trace{}, &cluster, features.Options{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := handTrace()
	bad.Jobs[0].Partition = "nope"
	if _, err := livestate.Build(bad, &cluster, features.Options{}); err == nil {
		t.Fatal("unknown partition accepted")
	}
	if _, err := livestate.Build(handTrace(), &cluster, features.Options{RuntimeSource: "psychic"}); err == nil {
		t.Fatal("unknown runtime source accepted")
	}
}

func TestUnsortedTraceHandled(t *testing.T) {
	tr := handTrace()
	// Reverse the jobs; Build must sort by eligibility itself.
	tr.Jobs[0], tr.Jobs[2] = tr.Jobs[2], tr.Jobs[0]
	cluster := features.TinyCluster()
	ds, err := livestate.Build(tr, &cluster, features.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Jobs[0].ID != 1 || ds.Jobs[2].ID != 3 {
		t.Fatal("dataset not sorted by eligibility")
	}
}

func BenchmarkBuild2k(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	tr := features.RandomTrace(rng, 2000)
	cluster := features.TinyCluster()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := livestate.Build(tr, &cluster, features.Options{Seed: 11}); err != nil {
			b.Fatal(err)
		}
	}
}
