package tensor_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	trout "repro"
	"repro/internal/core"
	"repro/internal/tensor"
)

// smallDataset is a 3,000-job trace's dataset and the pipeline that built
// it, set for two epochs per head.
func smallDataset(t *testing.T) (trout.PipelineConfig, *trout.Dataset, *trout.ClusterSpec) {
	t.Helper()
	p := trout.DefaultPipeline(3000, 5)
	p.Model.Classifier.Epochs = 2
	p.Model.Regressor.Epochs = 2
	p.Model.Seed = 5
	p.Features.RuntimeTrees = 10
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, cluster
}

// TestTrainKernelsAgree trains the same bundle on every f64 kernel this
// host runs the training products on — AVX-512 and the Go loops on an
// AVX-512 amd64 host — with the gradient workers pinned, and requires one
// Fingerprint: the kernels change no trained bit.
func TestTrainKernelsAgree(t *testing.T) {
	p, ds, cluster := smallDataset(t)
	p.Model.Workers = 2
	kernels := tensor.Kernels64()
	t.Logf("kernels %v", kernels)
	var want string
	for _, name := range kernels {
		restore := tensor.UseKernel64(name)
		m, _, err := trout.TrainHoldout(ds, p.Model, p.TestFraction)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		b, err := trout.NewBundle(m, ds, cluster)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Save(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		if want == "" {
			want = b.Fingerprint
		} else if b.Fingerprint != want {
			t.Fatalf("%s kernel trains bundle %s, %s kernel %s", name, b.Fingerprint, kernels[0], want)
		}
	}
}

// TestBundleKernelsAgree trains a small bundle of the default architecture
// and runs its float32 PredictBatch through every dense kernel this host
// supports — AVX-512 and SSE on an AVX-512 amd64 host, not only the
// dispatched one — requiring the same bits from each, on held-out rows,
// scaled copies of them and a NaN row.
func TestBundleKernelsAgree(t *testing.T) {
	p, ds, cluster := smallDataset(t)
	m, fold, err := trout.TrainHoldout(ds, p.Model, p.TestFraction)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if !b.EnableFastInference() {
		t.Fatal("EnableFastInference failed")
	}
	var rows [][]float64
	for _, i := range fold.Test {
		rows = append(rows, ds.X[i])
		scaled := slices.Clone(ds.X[i])
		for j := range scaled {
			scaled[j] *= float64(1 + len(rows)%7)
		}
		rows = append(rows, scaled)
	}
	poisoned := slices.Clone(rows[0])
	poisoned[3] = math.NaN()
	rows = append(rows, poisoned)

	kernels := tensor.Kernels32()
	t.Logf("%d rows, kernels %v", len(rows), kernels)
	var want []core.Prediction
	for _, name := range kernels {
		restore := tensor.UseKernel32(name)
		got := b.Model.PredictBatch(rows)
		restore()
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.Long != w.Long || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) ||
				math.Float64bits(g.Minutes) != math.Float64bits(w.Minutes) {
				t.Fatalf("row %d: %s kernel %+v, %s kernel %+v", i, name, g, kernels[0], w)
			}
		}
	}
	if p := want[len(want)-1].Prob; !math.IsNaN(p) {
		t.Fatalf("NaN row predicted prob %v, want NaN", p)
	}
}
