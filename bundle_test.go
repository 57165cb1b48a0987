package trout_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"maps"
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
	e := sharedFixture(t)
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
	e := sharedFixture(t)
	if _, err := trout.SnapshotFromTrace(e.Trace, -12345); err == nil {
		t.Fatal("missing job accepted")
	}
}

func TestSnapshotRowErrors(t *testing.T) {
	e := sharedFixture(t)
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
	e := sharedFixture(t)
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
	e := sharedFixture(t)
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
	e := sharedFixture(t)
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

// saveBundle returns b's saved bytes; Save stamps the Fingerprint on a
// copy, so the shared bundle is left as it was.
func saveBundle(t testing.TB, b *trout.Bundle) []byte {
	t.Helper()
	bc := *b
	var buf bytes.Buffer
	if err := bc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != bc.Fingerprint {
		t.Fatalf("Fingerprint %s is not the SHA-256 of the saved bytes", bc.Fingerprint)
	}
	return buf.Bytes()
}

// TestBundleSaveIsDeterministic pins Save as a function of the bundle: the
// per-partition medians are a map, and gob writes maps in Go's random
// iteration order, so before they went on the wire sorted the same bundle
// saved twice gave two fingerprints.
func TestBundleSaveIsDeterministic(t *testing.T) {
	b := resilientBundle(t)
	if len(b.Fallback.PartitionMedianMinutes) < 3 {
		t.Fatalf("only %d partition medians: the map order cannot show", len(b.Fallback.PartitionMedianMinutes))
	}
	first := saveBundle(t, b)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(saveBundle(t, b), first) {
			t.Fatalf("save %d differs from the first", i+2)
		}
	}
	back, err := trout.LoadBundle(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBundle(t, back), first) {
		t.Fatal("a loaded bundle saves to other bytes")
	}
}

// parentBundleDTO is the wire form bundles had before the medians were
// written sorted: the same fields, the medians as a gob map.
type parentBundleDTO struct {
	Model        []byte
	Runtime      []byte
	Cluster      trout.ClusterSpec
	Baseline     []byte
	Medians      map[string]float64
	GlobalMedian float64
}

// TestBundleLoadsMapMedians: a bundle in the older wire form loads with
// the same medians, and saves to the bytes of the bundle it was made from.
func TestBundleLoadsMapMedians(t *testing.T) {
	b := resilientBundle(t)
	var mb bytes.Buffer
	if err := b.Model.Save(&mb); err != nil {
		t.Fatal(err)
	}
	rb, err := b.Runtime.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.Fallback.Baseline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(parentBundleDTO{
		Model: mb.Bytes(), Runtime: rb, Cluster: b.Cluster, Baseline: gb,
		Medians: b.Fallback.PartitionMedianMinutes, GlobalMedian: b.Fallback.GlobalMedianMinutes,
	}); err != nil {
		t.Fatal(err)
	}
	back, err := trout.LoadBundle(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(back.Fallback.PartitionMedianMinutes, b.Fallback.PartitionMedianMinutes) ||
		back.Fallback.GlobalMedianMinutes != b.Fallback.GlobalMedianMinutes {
		t.Fatalf("medians %v / %v, want %v / %v", back.Fallback.PartitionMedianMinutes,
			back.Fallback.GlobalMedianMinutes, b.Fallback.PartitionMedianMinutes, b.Fallback.GlobalMedianMinutes)
	}
	if !bytes.Equal(saveBundle(t, back), saveBundle(t, b)) {
		t.Fatal("the older wire form saves to other bytes than the bundle it encodes")
	}
}

// FuzzLoadBundle feeds LoadBundle arbitrary bytes, seeded with a small
// trained bundle: it must never panic, and a bundle it accepts must save
// to bytes that load and save to themselves.
func FuzzLoadBundle(f *testing.F) {
	p := trout.DefaultPipeline(1500, 4)
	p.Model.Classifier.Epochs, p.Model.Classifier.Hidden = 1, []int{4}
	p.Model.Regressor.Epochs, p.Model.Regressor.Hidden = 1, []int{4}
	p.Features.RuntimeTrees = 2
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		f.Fatal(err)
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		f.Fatal(err)
	}
	m, _, err := trout.TrainHoldout(ds, p.Model, 0.2)
	if err != nil {
		f.Fatal(err)
	}
	b, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		f.Fatal(err)
	}
	seed := saveBundle(f, b)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := trout.LoadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := b.Save(&once); err != nil {
			return // a bundle Save cannot write, e.g. one without a runtime forest
		}
		back, err := trout.LoadBundle(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a saved bundle does not load: %v", err)
		}
		var twice bytes.Buffer
		if err := back.Save(&twice); err != nil {
			t.Fatalf("a reloaded bundle does not save: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save(Load(Save(b))) differs from Save(b)")
		}
	})
}
