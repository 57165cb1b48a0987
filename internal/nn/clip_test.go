package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestClipGradientsRescales(t *testing.T) {
	g1 := tensor.FromRows([][]float64{{3, 0}})
	g2 := tensor.FromRows([][]float64{{0, 4}})
	params := []Param{
		{Value: tensor.New(1, 2), Grad: g1},
		{Value: tensor.New(1, 2), Grad: g2},
	}
	// Global norm is 5; clip to 1 → scale by 0.2.
	clipGradients(params, 1)
	if math.Abs(g1.At(0, 0)-0.6) > 1e-12 || math.Abs(g2.At(0, 1)-0.8) > 1e-12 {
		t.Fatalf("clipped grads %v %v", g1, g2)
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-12 {
		t.Fatalf("post-clip norm %v", math.Sqrt(sq))
	}
}

func TestClipGradientsNoOpWithinNorm(t *testing.T) {
	g := tensor.FromRows([][]float64{{0.3, 0.4}})
	clipGradients([]Param{{Value: tensor.New(1, 2), Grad: g}}, 1)
	if g.At(0, 0) != 0.3 || g.At(0, 1) != 0.4 {
		t.Fatal("in-norm gradient was modified")
	}
	clipGradients([]Param{{Value: tensor.New(1, 2), Grad: g}}, 0)
	if g.At(0, 0) != 0.3 {
		t.Fatal("ClipNorm=0 must disable clipping")
	}
}

// TestClippedTrainingStillConverges: clipping must not break optimization.
func TestClippedTrainingStillConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	net := NewNetwork(rng, DenseSpec(1, 1))
	x := tensor.New(32, 1)
	y := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		v := rng.Float64()*2 - 1
		x.Set(i, 0, v)
		y.Set(i, 0, 4*v)
	}
	tr := Trainer{Net: net, Opt: NewAdam(0.05), Cfg: TrainConfig{
		Loss: MSE, Epochs: 400, BatchSize: 32, Workers: 1, Seed: 1, ClipNorm: 0.5}}
	tr.Fit(x, y)
	if w := net.Layers[0].(*Dense).W.At(0, 0); math.Abs(w-4) > 0.1 {
		t.Fatalf("clipped training w = %v, want ≈4", w)
	}
}

// TestClipTamesOutlierGradient: with a catastrophic outlier under MSE, the
// first update without clipping is far larger than with clipping.
func TestClipTamesOutlierGradient(t *testing.T) {
	build := func() (*Network, *tensor.Matrix, *tensor.Matrix) {
		rng := rand.New(rand.NewSource(31))
		net := NewNetwork(rng, DenseSpec(1, 1))
		x := tensor.FromRows([][]float64{{1}, {1e4}}) // outlier input
		y := tensor.FromRows([][]float64{{1}, {1e6}})
		return net, x, y
	}
	step := func(clip float64) float64 {
		net, x, y := build()
		before := net.Layers[0].(*Dense).W.At(0, 0)
		tr := Trainer{Net: net, Opt: &sgd{lr: 1e-6}, Cfg: TrainConfig{
			Loss: MSE, Epochs: 1, BatchSize: 2, Workers: 1, Seed: 2, ClipNorm: clip}}
		tr.Fit(x, y)
		return math.Abs(net.Layers[0].(*Dense).W.At(0, 0) - before)
	}
	unclipped := step(0)
	clipped := step(1)
	if clipped >= unclipped {
		t.Fatalf("clipping did not shrink the outlier step: %v vs %v", clipped, unclipped)
	}
}

func TestLRDecaySchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	net := NewNetwork(rng, DenseSpec(1, 1))
	opt := NewAdam(0.1)
	x := tensor.New(8, 1)
	y := tensor.New(8, 1)
	tr := Trainer{Net: net, Opt: opt, Cfg: TrainConfig{
		Loss: MSE, Epochs: 5, BatchSize: 8, Workers: 1, Seed: 1, LRDecay: 0.5}}
	tr.Fit(x, y)
	want := 0.1 * math.Pow(0.5, 5)
	if math.Abs(opt.LR()-want) > 1e-12 {
		t.Fatalf("LR after decay = %v, want %v", opt.LR(), want)
	}
}
