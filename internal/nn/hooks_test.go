package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestFitEpochStatsHook pins the telemetry contract: a healthy run with a
// holdout delivers one EpochStats per epoch with increasing epoch numbers,
// finite losses, a positive pre-clip gradient norm, and the optimizer's LR.
func TestFitEpochStatsHook(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	var got []EpochStats
	tr := Trainer{
		Net: net,
		Opt: NewAdam(1e-2),
		Cfg: TrainConfig{
			Loss: MSE, Epochs: 5, BatchSize: 32, Workers: 1, Seed: 5,
			ValFraction:  0.2,
			OnEpochStats: func(st EpochStats) { got = append(got, st) },
		},
	}
	if _, err := tr.FitCtx(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d epoch stats, want 5", len(got))
	}
	for i, st := range got {
		if st.Epoch != i {
			t.Fatalf("stats[%d].Epoch = %d", i, st.Epoch)
		}
		if math.IsNaN(st.TrainLoss) || math.IsInf(st.TrainLoss, 0) {
			t.Fatalf("epoch %d train loss %v", st.Epoch, st.TrainLoss)
		}
		if math.IsNaN(st.ValLoss) || math.IsInf(st.ValLoss, 0) {
			t.Fatalf("epoch %d val loss %v (holdout configured)", st.Epoch, st.ValLoss)
		}
		if st.GradNorm <= 0 || math.IsNaN(st.GradNorm) || math.IsInf(st.GradNorm, 0) {
			t.Fatalf("epoch %d grad norm %v", st.Epoch, st.GradNorm)
		}
		if st.LR != 1e-2 {
			t.Fatalf("epoch %d LR %v", st.Epoch, st.LR)
		}
	}
}

// TestFitEpochStatsNoHoldout: without ValFraction the hook still fires but
// reports ValLoss = NaN, letting consumers distinguish "no holdout" from
// "holdout loss of zero".
func TestFitEpochStatsNoHoldout(t *testing.T) {
	x, y := divergenceFixture(128)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{8}, 1, ReLU, Identity, 0)...)
	var got []EpochStats
	tr := Trainer{
		Net: net,
		Opt: NewAdam(1e-2),
		Cfg: TrainConfig{
			Loss: MSE, Epochs: 2, BatchSize: 32, Workers: 1, Seed: 5,
			OnEpochStats: func(st EpochStats) { got = append(got, st) },
		},
	}
	if _, err := tr.FitCtx(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d epoch stats", len(got))
	}
	for _, st := range got {
		if !math.IsNaN(st.ValLoss) {
			t.Fatalf("epoch %d val loss %v, want NaN without holdout", st.Epoch, st.ValLoss)
		}
	}
}

// TestFitEpochStatsShardedWorkers checks the parallel batch path also
// feeds the pre-clip gradient norm into the hook.
func TestFitEpochStatsShardedWorkers(t *testing.T) {
	x, y := divergenceFixture(512)
	net := NewNetwork(rand.New(rand.NewSource(9)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	var got []EpochStats
	tr := Trainer{
		Net: net,
		Opt: NewAdam(1e-2),
		Cfg: TrainConfig{
			Loss: MSE, Epochs: 2, BatchSize: 128, Workers: 4, Seed: 5,
			OnEpochStats: func(st EpochStats) { got = append(got, st) },
		},
	}
	if _, err := tr.FitCtx(context.Background(), x, y); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d epoch stats", len(got))
	}
	for _, st := range got {
		if st.GradNorm <= 0 {
			t.Fatalf("sharded epoch %d grad norm %v", st.Epoch, st.GradNorm)
		}
	}
}

// TestFitRollbackHook runs the exploding-LR fixture and checks OnRollback
// fires once per divergence event with the trainer's current LR.
func TestFitRollbackHook(t *testing.T) {
	x, y := divergenceFixture(256)
	net := NewNetwork(rand.New(rand.NewSource(7)), MLPSpecs(4, []int{16}, 1, ReLU, Identity, 0)...)
	type rb struct {
		epoch, events int
		lr            float64
	}
	var rolls []rb
	tr := Trainer{
		Net: net,
		Opt: &sgd{lr: 1e6},
		Cfg: TrainConfig{
			Loss: MSE, Epochs: 20, BatchSize: 32, Workers: 1, Seed: 5,
			DivergencePatience: 2,
			OnRollback: func(epoch, events int, lr float64) {
				rolls = append(rolls, rb{epoch, events, lr})
			},
		},
	}
	_, err := tr.FitCtx(context.Background(), x, y)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("want *DivergenceError, got %v", err)
	}
	if len(rolls) != 2 {
		t.Fatalf("rollback hook fired %d times, want 2", len(rolls))
	}
	for i, r := range rolls {
		if r.events != i+1 {
			t.Fatalf("rollback %d reported events=%d", i, r.events)
		}
		if r.lr <= 0 {
			t.Fatalf("rollback %d reported lr=%v", i, r.lr)
		}
	}
}
