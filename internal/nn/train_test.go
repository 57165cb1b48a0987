package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// trainTestSpecs exercises every training-path layer kind: dense, batch
// norm, activation, and (active) dropout.
func trainTestSpecs() []LayerSpec {
	return []LayerSpec{
		DenseSpec(12, 32), BatchNormSpec(32), ActivationSpec(ELU), DropoutSpec(0.25),
		DenseSpec(32, 8), ActivationSpec(ReLU),
		DenseSpec(8, 1),
	}
}

func trainTestData(rows int) (*tensor.Matrix, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(31))
	x := tensor.New(rows, 12)
	y := tensor.New(rows, 1)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		y.Data[i] = x.Row(i)[0] - 0.5*x.Row(i)[1] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// TestBatchStepAllocFree pins the training workspace's point: a warm serial
// batch step (gather, forward, loss, backward, Adam step) must run
// allocation-free.
func TestBatchStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	x, y := trainTestData(256)
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = i
	}

	net := NewNetwork(rand.New(rand.NewSource(41)), trainTestSpecs()...)
	tr := &Trainer{Net: net, Opt: NewAdam(1e-3), Cfg: TrainConfig{Loss: SmoothL1}}
	st := newTrainState([]*Network{net})
	for i := 0; i < 3; i++ { // warm the workspace and optimizer state
		tr.batchStep(st, x, y, batch, 1)
	}
	warm := testing.AllocsPerRun(50, func() {
		tr.batchStep(st, x, y, batch, 1)
	})
	if warm > 0 {
		t.Errorf("warm workspace batch step allocates %.1f times, want 0", warm)
	}
}

// BenchmarkTrainEpoch measures one full training epoch of a paper-shaped
// regressor (33 features, 64/32 hidden, smooth-L1, Adam) on the serial
// path.
func BenchmarkTrainEpoch(b *testing.B) {
	const rows = 8192
	rng := rand.New(rand.NewSource(51))
	x := tensor.New(rows, 33)
	y := tensor.New(rows, 1)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < rows; i++ {
		y.Data[i] = x.Row(i)[0]*2 - x.Row(i)[1] + 0.3*rng.NormFloat64()
	}
	net := NewNetwork(rng, MLPSpecs(33, []int{64, 32}, 1, ELU, Identity, 0.2)...)
	tr := &Trainer{
		Net: net,
		Opt: NewAdam(1e-3),
		Cfg: TrainConfig{Loss: SmoothL1, Epochs: 1, BatchSize: 256, Workers: 1, Seed: 5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Fit(x, y)
	}
}
