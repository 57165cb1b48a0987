package trout_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	trout "repro"
	"repro/internal/features"
)

// TestSnapshotRowMatchesBuild is the offline differential test: the row a
// job gets from the whole-trace scan (SnapshotFromTrace) must have exactly
// the bits of its row in the dataset, which the engine replay built. Float
// sums are order-dependent, so the scan runs over an ID-sorted copy of the
// trace — the order the engine emits, whatever the trace's order was.
func TestSnapshotRowMatchesBuild(t *testing.T) {
	e := sharedExperiment(t)
	jobs := slices.Clone(e.Trace.Jobs)
	slices.SortFunc(jobs, func(a, b trout.Job) int { return a.ID - b.ID })
	sorted := &trout.Trace{Jobs: jobs}
	checked := 0
	for i := 0; i < e.Data.Len() && checked < 40; i += e.Data.Len() / 40 {
		job := e.Data.Jobs[i]
		snap, err := trout.SnapshotFromTrace(sorted, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		row, err := features.SnapshotRow(snap, e.Cluster, e.Data.Runtime)
		if err != nil {
			t.Fatal(err)
		}
		for f, v := range row {
			if math.Float64bits(v) != math.Float64bits(e.Data.X[i][f]) {
				t.Fatalf("job %d feature %q: snapshot %v vs build %v",
					job.ID, trout.FeatureNames[f], v, e.Data.X[i][f])
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d jobs checked", checked)
	}
}

func TestSnapshotFromTraceErrors(t *testing.T) {
	e := sharedExperiment(t)
	if _, err := trout.SnapshotFromTrace(e.Trace, -12345); err == nil {
		t.Fatal("missing job accepted")
	}
}

func TestSnapshotRowErrors(t *testing.T) {
	e := sharedExperiment(t)
	snap := &trout.Snapshot{Target: trout.Job{Partition: "nope"}}
	if _, err := features.SnapshotRow(snap, e.Cluster, e.Data.Runtime); err == nil {
		t.Fatal("unknown partition accepted")
	}
	snap2 := &trout.Snapshot{Target: trout.Job{Partition: "shared"}}
	if _, err := features.SnapshotRow(snap2, e.Cluster, nil); err == nil {
		t.Fatal("nil runtime predictor accepted")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	e := sharedExperiment(t)
	m, fold, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trout.NewBundle(m, e.Data, e.Cluster)
	if err != nil {
		t.Fatal(err)
	}

	jobID := e.Data.Jobs[fold.Test[0]].ID
	snap, err := trout.SnapshotFromTrace(e.Trace, jobID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.PredictSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trout.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Long != want.Long || math.Abs(got.Prob-want.Prob) > 1e-12 || math.Abs(got.Minutes-want.Minutes) > 1e-9 {
		t.Fatalf("bundle round trip changed prediction: %+v vs %+v", got, want)
	}
	// Cluster preserved.
	if len(loaded.Cluster.Partitions) != len(b.Cluster.Partitions) {
		t.Fatal("cluster not preserved")
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	e := sharedExperiment(t)
	m, _, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trout.NewBundle(m, e.Data, e.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/b.bundle"
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := trout.LoadBundleFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := trout.LoadBundleFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNewBundleValidation(t *testing.T) {
	e := sharedExperiment(t)
	if _, err := trout.NewBundle(nil, e.Data, e.Cluster); err == nil {
		t.Fatal("nil model accepted")
	}
	m, _, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trout.NewBundle(m, nil, e.Cluster); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := trout.NewBundle(m, e.Data, nil); err == nil {
		t.Fatal("nil cluster accepted")
	}
}

func TestLoadBundleGarbage(t *testing.T) {
	if _, err := trout.LoadBundle(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
