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

// TestTrainWorkspaceMatchesLegacy is the training-path analogue of
// TestPredictIntoMatchesForward: ForwardTrain/LossInto/BackwardTrain over a
// workspace must be bit-identical to the allocating Forward/Loss/Backward
// path — losses, predictions, parameter gradients, optimizer trajectories,
// batch-norm running statistics, and dropout RNG consumption all agree
// across several optimizer steps and varying batch sizes (including a
// single-row batch, which takes batch-norm's running-stats branch).
func TestTrainWorkspaceMatchesLegacy(t *testing.T) {
	x, y := trainTestData(128)
	legacy := NewNetwork(rand.New(rand.NewSource(21)), trainTestSpecs()...)
	modern := NewNetwork(rand.New(rand.NewSource(21)), trainTestSpecs()...)
	optL, optM := NewAdam(0.01), NewAdam(0.01)
	ws := modern.NewTrainWorkspace()
	var xbuf, ybuf tensor.Matrix

	batches := [][2]int{{0, 32}, {32, 96}, {96, 97}, {97, 128}, {0, 16}}
	for step, span := range batches {
		batch := make([]int, span[1]-span[0])
		for i := range batch {
			batch[i] = span[0] + i
		}

		xbL, ybL := x.SelectRows(batch), y.SelectRows(batch)
		predL := legacy.Forward(xbL, true)
		lL, gradL := Loss(SmoothL1, predL, ybL)
		legacy.Backward(gradL)

		xbM := x.SelectRowsInto(batch, &xbuf)
		ybM := y.SelectRowsInto(batch, &ybuf)
		predM := modern.ForwardTrain(ws, xbM)
		lM := LossInto(SmoothL1, predM, ybM, &ws.grad)
		modern.BackwardTrain(ws, &ws.grad)

		if lL != lM {
			t.Fatalf("step %d: loss %v (legacy) != %v (workspace)", step, lL, lM)
		}
		for i := range predL.Data {
			if predL.Data[i] != predM.Data[i] {
				t.Fatalf("step %d: prediction %d differs: %v vs %v", step, i, predL.Data[i], predM.Data[i])
			}
		}
		pL, pM := legacy.Params(), modern.Params()
		for i := range pL {
			for k := range pL[i].Grad.Data {
				if pL[i].Grad.Data[k] != pM[i].Grad.Data[k] {
					t.Fatalf("step %d: param %d grad[%d] differs: %v vs %v",
						step, i, k, pL[i].Grad.Data[k], pM[i].Grad.Data[k])
				}
			}
		}
		optL.Step(pL)
		optM.Step(pM)
	}

	pL, pM := legacy.Params(), modern.Params()
	for i := range pL {
		for k := range pL[i].Value.Data {
			if pL[i].Value.Data[k] != pM[i].Value.Data[k] {
				t.Fatalf("param %d value[%d] diverged after training: %v vs %v",
					i, k, pL[i].Value.Data[k], pM[i].Value.Data[k])
			}
		}
	}
	for i, l := range legacy.Layers {
		bnL, ok := l.(*BatchNorm)
		if !ok {
			continue
		}
		bnM := modern.Layers[i].(*BatchNorm)
		for j := range bnL.RunMean {
			if bnL.RunMean[j] != bnM.RunMean[j] || bnL.RunVar[j] != bnM.RunVar[j] {
				t.Fatalf("batchnorm running stats diverged at %d", j)
			}
		}
	}
}

// TestBatchStepAllocFree pins the tentpole's allocation win: a warm serial
// batch step (gather, forward, loss, backward, clip, Adam step) must run
// allocation-free, and at least 10x leaner than the legacy allocating path.
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
	tr := &Trainer{Net: net, Opt: NewAdam(1e-3), Cfg: TrainConfig{Loss: SmoothL1, ClipNorm: 5}}
	st := newTrainState([]*Network{net})
	for i := 0; i < 3; i++ { // warm the workspace and optimizer state
		tr.batchStep(st, x, y, batch, 1, true)
	}
	warm := testing.AllocsPerRun(50, func() {
		tr.batchStep(st, x, y, batch, 1, true)
	})

	legacyNet := NewNetwork(rand.New(rand.NewSource(41)), trainTestSpecs()...)
	legacyOpt := NewAdam(1e-3)
	legacy := testing.AllocsPerRun(50, func() {
		xb, yb := x.SelectRows(batch), y.SelectRows(batch)
		pred := legacyNet.Forward(xb, true)
		_, grad := Loss(SmoothL1, pred, yb)
		legacyNet.Backward(grad)
		clipGradients(legacyNet.Params(), 5)
		legacyOpt.Step(legacyNet.Params())
	})

	t.Logf("allocs per batch step: workspace %.1f, legacy %.1f", warm, legacy)
	if warm > 0 {
		t.Errorf("warm workspace batch step allocates %.1f times, want 0", warm)
	}
	if warm > legacy/10 {
		t.Errorf("workspace path (%.1f allocs) is not >=10x leaner than legacy (%.1f)", warm, legacy)
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
		Cfg: TrainConfig{Loss: SmoothL1, Epochs: 1, BatchSize: 256, Workers: 1, Seed: 5, ClipNorm: 5},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Fit(x, y)
	}
}
