package trout_test

import (
	"math"
	"sync"
	"testing"

	trout "repro"
	"repro/internal/core"
	"repro/internal/tscv"
)

// fixture is one generated trace and its dataset, shared by the tests
// that train a model or seed a service from it.
type fixture struct {
	Pipeline trout.PipelineConfig
	Trace    *trout.Trace
	Cluster  *trout.ClusterSpec
	Data     *trout.Dataset
}

// testPipeline keeps test runtime modest: a 7000-job trace and shrunken
// training schedules.
func testPipeline() trout.PipelineConfig {
	p := trout.DefaultPipeline(7000, 21)
	p.Model.Classifier.Epochs = 6
	p.Model.Classifier.Hidden = []int{32, 16}
	p.Model.Regressor.Epochs = 10
	p.Model.Regressor.Hidden = []int{64, 32, 16}
	p.Model.Seed = 21
	p.Features.RuntimeTrees = 20
	return p
}

var (
	fixtureOnce sync.Once
	fixtureMemo *fixture
	fixtureErr  error
)

func sharedFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		p := testPipeline()
		tr, cluster, err := p.GenerateTrace()
		if err != nil {
			fixtureErr = err
			return
		}
		ds, err := p.BuildDataset(tr, cluster)
		fixtureMemo, fixtureErr = &fixture{Pipeline: p, Trace: tr, Cluster: cluster, Data: ds}, err
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureMemo
}

func TestHoldoutRecentReexport(t *testing.T) {
	// tscv is internal; the public API goes through TrainHoldout, but the
	// Fold alias must be usable.
	f, err := tscv.HoldoutRecent(100, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var pub trout.Fold = f
	if len(pub.Test) != 20 {
		t.Fatal("alias broken")
	}
}

func TestGenerateTraceShape(t *testing.T) {
	e := sharedFixture(t)
	if len(e.Trace.Jobs) != 7000 {
		t.Fatalf("trace has %d jobs", len(e.Trace.Jobs))
	}
	if err := e.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Data.Len() != 7000 {
		t.Fatalf("dataset has %d rows", e.Data.Len())
	}
	if len(e.Data.X[0]) != len(trout.FeatureNames) {
		t.Fatalf("row width %d != %d features", len(e.Data.X[0]), len(trout.FeatureNames))
	}
}

func TestTrainHoldoutAndPredict(t *testing.T) {
	e := sharedFixture(t)
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(e.Data.X[fold.Test[0]])
	if p.Prob < 0 || p.Prob > 1 {
		t.Fatalf("prob %v", p.Prob)
	}
	msg := p.Message(10)
	if msg == "" {
		t.Fatal("empty message")
	}
}

func TestContinueTrainingErrors(t *testing.T) {
	e := sharedFixture(t)
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ContinueTraining(e.Data, fold.Test[:3], 2); err == nil {
		t.Fatal("tiny update slice accepted")
	}
	if err := m.ContinueTraining(e.Data, fold.Test, 0); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

func TestContinueTrainingMovesTowardFreshData(t *testing.T) {
	// Train on the oldest half, then fine-tune heavily on the newest
	// quarter; loss on that fresh window must improve.
	e := sharedFixture(t)
	n := e.Data.Len()
	trainIdx := make([]int, n/2)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	fresh := make([]int, n/4)
	for i := range fresh {
		fresh[i] = n - n/4 + i
	}
	m, err := core.Train(e.Data, trainIdx, e.Pipeline.Model)
	if err != nil {
		t.Fatal(err)
	}
	// Score in the space the update optimizes: mean |log1p(pred) −
	// log1p(actual)| over the window's long jobs.
	logMAE := func() float64 {
		var s float64
		n := 0
		for _, i := range fresh {
			if e.Data.QueueMinutes[i] < m.Cfg.CutoffMinutes {
				continue
			}
			d := math.Log1p(m.RegressMinutes(e.Data.X[i])) - math.Log1p(e.Data.QueueMinutes[i])
			s += math.Abs(d)
			n++
		}
		return s / float64(n)
	}
	before := logMAE()
	if err := m.ContinueTraining(e.Data, fresh, 40); err != nil {
		t.Fatal(err)
	}
	after := logMAE()
	// Trained on the evaluation window itself: the objective must drop.
	if after >= before {
		t.Fatalf("fine-tuning on the window did not reduce log-MAE: %.4f -> %.4f", before, after)
	}
}
