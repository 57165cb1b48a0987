package nn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// wsTestNet builds a network exercising every inference-path layer kind:
// dense, activation, dropout (identity at inference), and batch-norm.
func wsTestNet(dropout float64) *Network {
	rng := rand.New(rand.NewSource(11))
	n := NewNetwork(rng,
		DenseSpec(33, 64), BatchNormSpec(64), ActivationSpec(ELU), DropoutSpec(dropout),
		DenseSpec(64, 16), ActivationSpec(ReLU),
		DenseSpec(16, 1), ActivationSpec(Sigmoid),
	)
	// Make batch-norm running stats non-trivial so the path is exercised.
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			for j := range bn.RunMean {
				bn.RunMean[j] = rng.NormFloat64()
				bn.RunVar[j] = 1 + rng.Float64()
			}
		}
	}
	return n
}

// TestPredictIntoMatchesForward: on a net without active dropout, inference
// (PredictInto) and the training forward (ForwardTrain, which
// gradcheck_test.go ties to BackwardTrain) are the same function bit for bit
// — for every layer kind and activation, single- and multi-row. Batch-norm
// is compared row by row: a one-row training batch takes the running-stats
// branch inference always takes, a multi-row one normalizes by the batch.
func TestPredictIntoMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	everyActivation := []LayerSpec{DenseSpec(33, 24)}
	for _, k := range []ActivationKind{ReLU, ELU, LeakyReLU, Tanh, Identity} {
		everyActivation = append(everyActivation, ActivationSpec(k), DenseSpec(24, 24))
	}
	everyActivation = append(everyActivation, DropoutSpec(0), DenseSpec(24, 2), ActivationSpec(Sigmoid))
	for _, tc := range []struct {
		name      string
		net       *Network
		batchNorm bool
	}{
		{"every-activation", NewNetwork(rng, everyActivation...), false},
		{"batch-norm", wsTestNet(0), true},
	} {
		ws, tws := tc.net.NewWorkspace(), tc.net.NewTrainWorkspace()
		for _, rows := range []int{1, 3, 64, 7} { // shrinking batch reuses big buffers
			in := tensor.New(rows, 33)
			in.RandN(rng, 1)
			got := tc.net.PredictInto(ws, in)
			if !tc.batchNorm {
				if want := tc.net.ForwardTrain(tws, in); !matEqual(got, want, 0) {
					t.Fatalf("%s rows=%d: PredictInto differs from ForwardTrain", tc.name, rows)
				}
			}
			for r := 0; r < rows; r++ {
				want := tc.net.ForwardTrain(tws, in.SelectRows([]int{r}))
				for j, w := range want.Data {
					if g := got.At(r, j); g != w {
						t.Fatalf("%s rows=%d: PredictInto[%d,%d]=%v, ForwardTrain on that row alone=%v", tc.name, rows, r, j, g, w)
					}
				}
			}
			// Predict (pooled workspace + clone) agrees too.
			if out := tc.net.Predict(in); !matEqual(out, got, 0) {
				t.Fatalf("%s rows=%d: Predict differs from PredictInto", tc.name, rows)
			}
		}
	}
}

// TestPredict1MatchesForward: the zero-alloc scalar path returns the same
// first unit as the training forward on that row.
func TestPredict1MatchesForward(t *testing.T) {
	n := wsTestNet(0)
	rng := rand.New(rand.NewSource(13))
	row := make([]float64, 33)
	for i := range row {
		row[i] = rng.Float64() * 5
	}
	want := n.ForwardTrain(n.NewTrainWorkspace(), tensor.FromRows([][]float64{row})).Data[0]
	if got := n.Predict1(row); got != want {
		t.Fatalf("Predict1 = %v, ForwardTrain = %v", got, want)
	}
}

// TestPredictSteadyStateAllocs is the hot-path guard: on a warm workspace
// pool, Predict1 must not allocate and Predict must stay at the constant
// output-clone cost — no per-row heap traffic.
func TestPredictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	n := wsTestNet(0.2)
	row := make([]float64, 33)
	for i := range row {
		row[i] = float64(i)
	}
	n.Predict1(row) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { n.Predict1(row) }); allocs > 0 {
		t.Fatalf("Predict1 allocates %.1f per run on a warm pool, want 0", allocs)
	}

	in := tensor.New(8, 33)
	n.Predict(in)
	// Predict clones the output (matrix header + data = 2 allocations);
	// anything above a small constant means the workspace is not reused.
	if allocs := testing.AllocsPerRun(200, func() { n.Predict(in) }); allocs > 4 {
		t.Fatalf("Predict allocates %.1f per run on a warm pool, want <= 4", allocs)
	}

	ws := n.AcquireWorkspace()
	defer n.ReleaseWorkspace(ws)
	n.PredictInto(ws, in)
	if allocs := testing.AllocsPerRun(200, func() { n.PredictInto(ws, in) }); allocs > 0 {
		t.Fatalf("PredictInto allocates %.1f per run on a warm workspace, want 0", allocs)
	}
}

// TestPredictConcurrent drives pooled inference from many goroutines; run
// with -race this is the workspace-sharing safety check.
func TestPredictConcurrent(t *testing.T) {
	n := wsTestNet(0.2)
	rng := rand.New(rand.NewSource(14))
	rows := make([][]float64, 16)
	want := make([]float64, len(rows))
	for i := range rows {
		rows[i] = make([]float64, 33)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
		want[i] = n.Predict1(rows[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % len(rows)
				if got := n.Predict1(rows[i]); got != want[i] {
					t.Errorf("concurrent Predict1 row %d: %v != %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
