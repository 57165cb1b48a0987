package core

import (
	"testing"
)

// TestPredictBatchMatchesSequential: the mini-batch path must be
// bit-identical to row-by-row Predict — same kernels, same accumulation
// order, same clamping — for every batch size, including ones that span
// multiple parallel chunks.
func TestPredictBatchMatchesSequential(t *testing.T) {
	m, ds, fold := sharedModel(t)
	for _, n := range []int{0, 1, 7, 64, len(fold.Test)} {
		rows := make([][]float64, n)
		for i := 0; i < n; i++ {
			rows[i] = ds.X[fold.Test[i%len(fold.Test)]]
		}
		got := m.PredictBatch(rows)
		if len(got) != n {
			t.Fatalf("n=%d: got %d predictions", n, len(got))
		}
		for i, r := range rows {
			want := m.Predict(r)
			if got[i] != want {
				t.Fatalf("n=%d row %d: batch %+v != sequential %+v", n, i, got[i], want)
			}
		}
	}
}

// TestPredictBatchAllLongAllShort exercises the degenerate splits: a batch
// where the regressor sees every row, and one where it sees none.
func TestPredictBatchAllLongAllShort(t *testing.T) {
	m, ds, fold := sharedModel(t)
	var long, short [][]float64
	for _, i := range fold.Test {
		if p := m.Predict(ds.X[i]); p.Long {
			long = append(long, ds.X[i])
		} else {
			short = append(short, ds.X[i])
		}
		if len(long) >= 5 && len(short) >= 5 {
			break
		}
	}
	for _, rows := range [][][]float64{long, short} {
		if len(rows) == 0 {
			continue
		}
		got := m.PredictBatch(rows)
		for i, r := range rows {
			if want := m.Predict(r); got[i] != want {
				t.Fatalf("row %d: %+v != %+v", i, got[i], want)
			}
		}
	}
}

// TestPredictWarmPathAllocatesNothing guards Predict's stack-staged chunk
// of one, on the f64 and the f32 kernels, for a short row (classifier
// only) and a long one (the all-long chunk hands the regressor the
// classifier's matrix).
func TestPredictWarmPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	m, ds, fold := sharedModel(t)
	var long, short []float64
	for _, i := range fold.Test {
		if m.Predict(ds.X[i]).Long {
			long = ds.X[i]
		} else {
			short = ds.X[i]
		}
	}
	if long == nil || short == nil {
		t.Fatal("holdout lacks a long or a short row")
	}
	check := func(kernel string) {
		for name, row := range map[string][]float64{"long": long, "short": short} {
			m.Predict(row) // warm the pools
			if allocs := testing.AllocsPerRun(200, func() { m.Predict(row) }); allocs != 0 {
				t.Errorf("%s Predict on a %s row: %v allocs/op, want 0", kernel, name, allocs)
			}
		}
	}
	check("f64")
	if !m.EnableFastInference() {
		t.Fatal("model did not compile onto the f32 path")
	}
	defer func() {
		m.Classifier.DisableFloat32()
		m.Regressor.DisableFloat32()
	}()
	check("f32")
}
