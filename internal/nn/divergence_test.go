package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// divergenceFixture builds a small regression problem with large targets —
// harmless at a sane learning rate, explosive at an absurd one.
func divergenceFixture(n int) (*tensor.Matrix, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(41))
	x := tensor.New(n, 4)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		var s float64
		for f := 0; f < 4; f++ {
			v := rng.NormFloat64()
			x.Set(i, f, v)
			s += v
		}
		y.Set(i, 0, 1e3*s)
	}
	return x, y
}

func snapshotWeights(net *Network) [][]float64 {
	var out [][]float64
	for _, p := range net.Params() {
		out = append(out, append([]float64(nil), p.Value.Data...))
	}
	return out
}

// TestFitDivergenceRollsBack is the exploding-learning-rate fixture: Fit
// must detect the non-finite losses, restore the best checkpointed weights
// (here the initial ones — no epoch ever completes), and return a typed
// divergence error.
func TestFitDivergenceRollsBack(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	initial := snapshotWeights(net)
	tr := Trainer{
		Net: net,
		Opt: &sgd{lr: 1e6},
		Cfg: TrainConfig{Loss: MSE, Epochs: 20, BatchSize: 32, Workers: 1, Seed: 5, DivergencePatience: 2},
	}
	res, err := tr.FitCtx(context.Background(), x, y)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if de.Events != 2 {
		t.Fatalf("divergence events %d", de.Events)
	}
	if !res.Diverged || res.Rollbacks != 2 {
		t.Fatalf("result %+v", res)
	}
	// Rollback must leave the network at the best checkpoint — the initial
	// weights, since no epoch finished with a finite loss before give-up.
	after := snapshotWeights(net)
	for i := range after {
		for k := range after[i] {
			if math.IsNaN(after[i][k]) || math.IsInf(after[i][k], 0) {
				t.Fatalf("param %d[%d] non-finite after rollback", i, k)
			}
			if after[i][k] != initial[i][k] {
				t.Fatalf("param %d[%d]: rollback gave %v, checkpoint was %v",
					i, k, after[i][k], initial[i][k])
			}
		}
	}
}

// TestFitDivergenceParallelWorkers exercises the sharded batch path's
// non-finite gradient guard.
func TestFitDivergenceParallelWorkers(t *testing.T) {
	x, y := divergenceFixture(512)
	net := NewNetwork(rand.New(rand.NewSource(9)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	tr := Trainer{
		Net: net,
		Opt: &sgd{lr: 1e6},
		Cfg: TrainConfig{Loss: MSE, Epochs: 20, BatchSize: 128, Workers: 4, Seed: 5, DivergencePatience: 1},
	}
	_, err := tr.FitCtx(context.Background(), x, y)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite weights survived rollback")
			}
		}
	}
}

// TestFitHealthyRunNoDivergence pins the guard's no-op behavior: a sane
// run trains to completion with no rollbacks and a finite loss.
func TestFitHealthyRunNoDivergence(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	tr := Trainer{
		Net: net,
		Opt: NewAdam(1e-2),
		Cfg: TrainConfig{Loss: MSE, Epochs: 10, BatchSize: 32, Workers: 1, Seed: 5},
	}
	res, err := tr.FitCtx(context.Background(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diverged || res.Rollbacks != 0 || res.Epochs != 10 {
		t.Fatalf("result %+v", res)
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("final loss %v", res.FinalLoss)
	}
}

// TestFitContextCancellation verifies FitCtx stops between batches once
// the context is done and surfaces the context error.
func TestFitContextCancellation(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	tr := Trainer{
		Net: net,
		Opt: NewAdam(1e-2),
		Cfg: TrainConfig{Loss: MSE, Epochs: 10, BatchSize: 32, Workers: 1, Seed: 5},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := tr.FitCtx(ctx, x, y)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Epochs != 0 {
		t.Fatalf("trained %d epochs after cancellation", res.Epochs)
	}
}

// TestFitDivergenceDisabled pins the opt-out: negative patience restores
// the pre-hardening behavior where NaNs flow into the weights and Fit
// reports no error.
func TestFitDivergenceDisabled(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	tr := Trainer{
		Net: net,
		Opt: &sgd{lr: 1e6},
		Cfg: TrainConfig{Loss: MSE, Epochs: 3, BatchSize: 32, Workers: 1, Seed: 5, DivergencePatience: -1},
	}
	if _, err := tr.FitCtx(context.Background(), x, y); err != nil {
		t.Fatalf("disabled guard returned %v", err)
	}
	sawNonFinite := false
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				sawNonFinite = true
			}
		}
	}
	if !sawNonFinite {
		t.Skip("fixture did not explode without the guard; nothing to pin")
	}
}
