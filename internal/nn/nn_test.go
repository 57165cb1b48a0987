package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		kind ActivationKind
		x    float64
		want float64
	}{
		{ReLU, 2, 2}, {ReLU, -2, 0},
		{ELU, 1.5, 1.5}, {ELU, -1, math.Exp(-1) - 1},
		{LeakyReLU, -10, -0.1},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
		{Identity, -3.25, -3.25},
	}
	for _, c := range cases {
		if got := activate(c.kind, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.kind, c.x, got, c.want)
		}
	}
}

// TestActivationGradNumeric checks every activation's analytic derivative
// against central finite differences.
func TestActivationGradNumeric(t *testing.T) {
	const h = 1e-6
	for _, kind := range []ActivationKind{ReLU, ELU, LeakyReLU, Sigmoid, Tanh, Identity} {
		for _, x := range []float64{-2.1, -0.5, 0.3, 1.7} {
			y := activate(kind, x)
			got := activateGrad(kind, x, y)
			num := (activate(kind, x+h) - activate(kind, x-h)) / (2 * h)
			if math.Abs(got-num) > 1e-4 {
				t.Errorf("%s'(%v) = %v, numeric %v", kind, x, got, num)
			}
		}
	}
}

func TestValidActivation(t *testing.T) {
	if !ValidActivation(ELU) || ValidActivation("bogus") {
		t.Fatal("ValidActivation wrong")
	}
}

// matEqual reports whether a and b have identical shape and elements
// within tol.
func matEqual(a, b *tensor.Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestDenseForwardKnown(t *testing.T) {
	net := NewNetwork(rand.New(rand.NewSource(1)), DenseSpec(2, 1))
	d := net.Layers[0].(*Dense)
	d.W.Set(0, 0, 2)
	d.W.Set(1, 0, 3)
	d.B.Set(0, 0, 1)
	out := net.PredictInto(net.NewWorkspace(), tensor.FromRows([][]float64{{1, 1}, {2, 0}}))
	if out.At(0, 0) != 6 || out.At(1, 0) != 5 {
		t.Fatalf("dense forward = %v", out)
	}
}

// TestBatchNormInferenceKnown: inference normalizes with the running
// statistics, out = gamma*(x-mean)/sqrt(var+eps) + beta, by hand.
func TestBatchNormInferenceKnown(t *testing.T) {
	net := NewNetwork(rand.New(rand.NewSource(1)), BatchNormSpec(2))
	bn := net.Layers[0].(*BatchNorm)
	bn.Eps = 0
	copy(bn.RunMean, []float64{1, -2})
	copy(bn.RunVar, []float64{4, 0.25})
	copy(bn.Gamma.Data, []float64{2, 1})
	copy(bn.Beta.Data, []float64{3, 0})
	out := net.PredictInto(net.NewWorkspace(), tensor.FromRows([][]float64{{5, -1}, {1, -2}}))
	want := tensor.FromRows([][]float64{{7, 2}, {3, 0}})
	if !matEqual(out, want, 0) {
		t.Fatalf("batch-norm inference = %v, want %v", out, want)
	}
}

// numericGrad computes dLoss/dparam[i] by central differences for a network
// with a single scalar input/output pair.
func numericNetGrad(net *Network, x, y *tensor.Matrix, loss LossKind, p Param, i int) float64 {
	const h = 1e-6
	orig := p.Value.Data[i]
	p.Value.Data[i] = orig + h
	lp, _ := Loss(loss, net.Predict(x), y)
	p.Value.Data[i] = orig - h
	lm, _ := Loss(loss, net.Predict(x), y)
	p.Value.Data[i] = orig
	return (lp - lm) / (2 * h)
}

// TestBackpropNumeric verifies end-to-end backprop gradients against finite
// differences for a two-layer ELU network under each regression loss.
func TestBackpropNumeric(t *testing.T) {
	for _, loss := range []LossKind{MSE, SmoothL1, MAE} {
		rng := rand.New(rand.NewSource(7))
		net := NewNetwork(rng,
			DenseSpec(3, 4), ActivationSpec(ELU),
			DenseSpec(4, 1))
		x := tensor.New(5, 3)
		x.RandN(rng, 1)
		y := tensor.New(5, 1)
		y.RandN(rng, 1)

		ws := net.NewTrainWorkspace()
		_, grad := Loss(loss, net.ForwardTrain(ws, x), y)
		net.BackwardTrain(ws, grad)

		for pi, p := range net.Params() {
			for i := 0; i < len(p.Value.Data); i += 3 {
				num := numericNetGrad(net, x, y, loss, p, i)
				got := p.Grad.Data[i]
				if math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("loss %s param %d[%d]: grad %v, numeric %v", loss, pi, i, got, num)
				}
			}
		}
	}
}

// TestBackpropNumericBCE does the same for the classifier head.
func TestBackpropNumericBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(rng,
		DenseSpec(3, 4), ActivationSpec(ReLU),
		DenseSpec(4, 1), ActivationSpec(Sigmoid))
	x := tensor.New(6, 3)
	x.RandN(rng, 1)
	y := tensor.New(6, 1)
	for i := range y.Data {
		if rng.Float64() < 0.5 {
			y.Data[i] = 1
		}
	}
	ws := net.NewTrainWorkspace()
	_, grad := Loss(BCE, net.ForwardTrain(ws, x), y)
	net.BackwardTrain(ws, grad)
	for pi, p := range net.Params() {
		for i := 0; i < len(p.Value.Data); i += 2 {
			num := numericNetGrad(net, x, y, BCE, p, i)
			got := p.Grad.Data[i]
			if math.Abs(got-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("BCE param %d[%d]: grad %v, numeric %v", pi, i, got, num)
			}
		}
	}
}

// TestBatchNormBackpropNumeric checks the batch-norm gradient.
func TestBatchNormBackpropNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork(rng,
		DenseSpec(3, 4), BatchNormSpec(4), ActivationSpec(ELU),
		DenseSpec(4, 1))
	x := tensor.New(8, 3)
	x.RandN(rng, 1)
	y := tensor.New(8, 1)
	y.RandN(rng, 1)

	// Finite differences must be evaluated with training-mode statistics,
	// so use a helper that re-runs the training path.
	ws := net.NewTrainWorkspace()
	numGrad := func(p Param, i int) float64 {
		const h = 1e-5
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		lp, _ := Loss(MSE, net.ForwardTrain(ws, x), y)
		p.Value.Data[i] = orig - h
		lm, _ := Loss(MSE, net.ForwardTrain(ws, x), y)
		p.Value.Data[i] = orig
		return (lp - lm) / (2 * h)
	}

	_, grad := Loss(MSE, net.ForwardTrain(ws, x), y)
	net.BackwardTrain(ws, grad)
	for pi, p := range net.Params() {
		for i := 0; i < len(p.Value.Data); i += 3 {
			got := p.Grad.Data[i]
			num := numGrad(p, i)
			if math.Abs(got-num) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("BN net param %d[%d]: grad %v, numeric %v", pi, i, got, num)
			}
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	net := NewNetwork(rand.New(rand.NewSource(10)), DropoutSpec(0.5))
	in := tensor.New(10, 100)
	in.Fill(1)
	if !matEqual(net.Predict(in), in, 0) {
		t.Fatal("dropout must be identity at inference")
	}
	trainOut := net.ForwardTrain(net.NewTrainWorkspace(), in)
	zeros := 0
	for _, v := range trainOut.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving activation %v, want 2 (inverted dropout)", v)
		}
	}
	frac := float64(zeros) / float64(len(trainOut.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropped fraction %v, want ≈0.5", frac)
	}
	// Expected value preserved.
	mean := trainOut.Sum() / float64(len(trainOut.Data))
	if mean < 0.85 || mean > 1.15 {
		t.Fatalf("dropout mean %v, want ≈1", mean)
	}
}

func TestDropoutBackwardMasks(t *testing.T) {
	net := NewNetwork(rand.New(rand.NewSource(11)), DropoutSpec(0.5))
	ws := net.NewTrainWorkspace()
	in := tensor.New(1, 50)
	in.Fill(1)
	out := net.ForwardTrain(ws, in)
	g := tensor.New(1, 50)
	g.Fill(1)
	net.BackwardTrain(ws, g)
	back := ws.bwd[0] // the dropout layer's input gradient
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(rng, BatchNormSpec(2))
	in := tensor.New(256, 2)
	for i := 0; i < in.Rows; i++ {
		in.Set(i, 0, rng.NormFloat64()*5+100)
		in.Set(i, 1, rng.NormFloat64()*0.1-3)
	}
	out := net.ForwardTrain(net.NewTrainWorkspace(), in)
	var means, vars [2]float64
	for i := 0; i < out.Rows; i++ {
		for j, v := range out.Row(i) {
			means[j] += v / float64(out.Rows)
		}
	}
	for i := 0; i < out.Rows; i++ {
		for j, v := range out.Row(i) {
			vars[j] += (v - means[j]) * (v - means[j]) / float64(out.Rows)
		}
	}
	for j := 0; j < 2; j++ {
		if math.Abs(means[j]) > 1e-9 {
			t.Fatalf("BN mean[%d] = %v", j, means[j])
		}
		if math.Abs(vars[j]-1) > 5e-3 { // ε shrinks small-variance columns slightly
			t.Fatalf("BN var[%d] = %v", j, vars[j])
		}
	}
}

func TestLossValues(t *testing.T) {
	pred := tensor.FromRows([][]float64{{2}, {0}})
	tgt := tensor.FromRows([][]float64{{0}, {0}})
	l, _ := Loss(MSE, pred, tgt)
	if math.Abs(l-2) > 1e-12 { // (4+0)/2
		t.Fatalf("MSE = %v, want 2", l)
	}
	l, _ = Loss(MAE, pred, tgt)
	if math.Abs(l-1) > 1e-12 {
		t.Fatalf("MAE = %v, want 1", l)
	}
	// SmoothL1 with |d|=2 > beta: 2-0.5 = 1.5; |d|=0: 0 → mean 0.75.
	l, _ = Loss(SmoothL1, pred, tgt)
	if math.Abs(l-0.75) > 1e-12 {
		t.Fatalf("SmoothL1 = %v, want 0.75", l)
	}
	// BCE of perfect predictions ~ 0.
	l, _ = Loss(BCE, tensor.FromRows([][]float64{{1 - 1e-9}, {1e-9}}), tensor.FromRows([][]float64{{1}, {0}}))
	if l > 1e-6 {
		t.Fatalf("BCE of perfect preds = %v", l)
	}
}

// Property: smooth-L1 is between 0.5*MAE-ish and MSE behaviour — specifically
// it is ≤ MSE/2 + 0.5 bound and always non-negative, and equals 0 iff pred==target.
func TestSmoothL1Properties(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		l, _ := Loss(SmoothL1, tensor.FromRows([][]float64{{a}}), tensor.FromRows([][]float64{{b}}))
		if l < 0 {
			return false
		}
		if a == b && l != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Loss(MSE, tensor.New(2, 1), tensor.New(3, 1))
}

// TestAdamConvergesQuadratic drives a single weight to the minimum of a
// quadratic: y = 3x, fit with a 1-param linear model.
func TestAdamConvergesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(rng, DenseSpec(1, 1))
	x := tensor.New(32, 1)
	y := tensor.New(32, 1)
	for i := 0; i < 32; i++ {
		v := rng.Float64()*4 - 2
		x.Set(i, 0, v)
		y.Set(i, 0, 3*v)
	}
	tr := Trainer{Net: net, Opt: NewAdam(0.05), Cfg: TrainConfig{Loss: MSE, Epochs: 300, BatchSize: 32, Workers: 1, Seed: 1}}
	tr.Fit(x, y)
	w := net.Layers[0].(*Dense).W.At(0, 0)
	if math.Abs(w-3) > 0.05 {
		t.Fatalf("Adam fit w = %v, want ≈3", w)
	}
}

// TestXORClassifier: the classic nonlinear sanity check for backprop.
func TestXORClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(rng, MLPSpecs(2, []int{8}, 1, Tanh, Sigmoid, 0)...)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromRows([][]float64{{0}, {1}, {1}, {0}})
	tr := Trainer{Net: net, Opt: NewAdam(0.05), Cfg: TrainConfig{Loss: BCE, Epochs: 500, BatchSize: 4, Workers: 1, Seed: 3}}
	tr.Fit(x, y)
	pred := net.Predict(x)
	for i := 0; i < 4; i++ {
		got := pred.At(i, 0) > 0.5
		want := y.At(i, 0) > 0.5
		if got != want {
			t.Fatalf("XOR sample %d misclassified (p=%v)", i, pred.At(i, 0))
		}
	}
}

// TestParallelTrainerMatchesSerialLoss: multi-worker training must reach a
// comparable loss to single-worker training on the same regression task.
func TestParallelTrainerMatchesSerialLoss(t *testing.T) {
	gen := func(seed int64) (*tensor.Matrix, *tensor.Matrix) {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(512, 4)
		y := tensor.New(512, 1)
		for i := 0; i < 512; i++ {
			var s float64
			for j := 0; j < 4; j++ {
				v := rng.Float64()*2 - 1
				x.Set(i, j, v)
				s += float64(j+1) * v
			}
			y.Set(i, 0, s)
		}
		return x, y
	}
	run := func(workers int) float64 {
		x, y := gen(99)
		rng := rand.New(rand.NewSource(16))
		net := NewNetwork(rng, MLPSpecs(4, []int{16}, 1, ELU, Identity, 0)...)
		tr := Trainer{Net: net, Opt: NewAdam(0.01), Cfg: TrainConfig{Loss: MSE, Epochs: 40, BatchSize: 64, Workers: workers, Seed: 4}}
		res := tr.Fit(x, y)
		return res.FinalLoss
	}
	serial := run(1)
	parallel := run(4)
	if parallel > serial*3+0.05 {
		t.Fatalf("parallel loss %v much worse than serial %v", parallel, serial)
	}
	if serial > 0.05 {
		t.Fatalf("serial training failed to converge: loss %v", serial)
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(rng, MLPSpecs(2, []int{4}, 1, ReLU, Identity, 0)...)
	// Pure-noise targets: validation loss cannot improve for long.
	x := tensor.New(200, 2)
	x.RandN(rng, 1)
	y := tensor.New(200, 1)
	y.RandN(rng, 1)
	tr := Trainer{Net: net, Opt: NewAdam(0.01), Cfg: TrainConfig{
		Loss: MSE, Epochs: 200, BatchSize: 32, Workers: 1,
		ValFraction: 0.25, Patience: 3, Seed: 5}}
	res := tr.Fit(x, y)
	if !res.EarlyStops {
		t.Fatal("expected early stopping on noise")
	}
	if res.Epochs >= 200 {
		t.Fatal("early stopping did not cut epochs")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	net := NewNetwork(rng, MLPSpecs(3, []int{5, 4}, 1, ELU, Identity, 0.1)...)
	in := tensor.New(4, 3)
	in.RandN(rng, 1)
	want := net.Predict(in)

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(got.Predict(in), want, 1e-12) {
		t.Fatal("loaded network predicts differently")
	}
}

func TestSaveLoadBatchNormStats(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := NewNetwork(rng, DenseSpec(2, 3), BatchNormSpec(3), DenseSpec(3, 1))
	// Run training forwards to move the running stats.
	x := tensor.New(64, 2)
	x.RandN(rng, 2)
	net.ForwardTrain(net.NewTrainWorkspace(), x)
	in := tensor.New(3, 2)
	in.RandN(rng, 1)
	want := net.Predict(in)
	b, err := net.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !matEqual(got.Predict(in), want, 1e-12) {
		t.Fatal("batch-norm running stats not preserved")
	}
}

func TestMLPSpecs(t *testing.T) {
	specs := MLPSpecs(33, []int{64, 32, 16}, 1, ELU, Identity, 0.2)
	// 3 hidden: each dense+act+dropout = 9, plus final dense = 10.
	if len(specs) != 10 {
		t.Fatalf("got %d specs", len(specs))
	}
	net := NewNetwork(rand.New(rand.NewSource(20)), specs...)
	out := net.Predict(tensor.New(2, 33))
	if out.Rows != 2 || out.Cols != 1 {
		t.Fatalf("MLP output %dx%d", out.Rows, out.Cols)
	}
}

func TestPredict1(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(rng, DenseSpec(2, 1))
	d := net.Layers[0].(*Dense)
	d.W.Set(0, 0, 1)
	d.W.Set(1, 0, 1)
	if got := net.Predict1([]float64{2, 3}); got != 5 {
		t.Fatalf("Predict1 = %v", got)
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rngA := rand.New(rand.NewSource(23))
	rngB := rand.New(rand.NewSource(24))
	a := NewNetwork(rngA, DenseSpec(2, 2))
	b := NewNetwork(rngB, DenseSpec(2, 2))
	b.CopyWeightsFrom(a)
	in := tensor.FromRows([][]float64{{1, 2}})
	if !matEqual(a.Predict(in), b.Predict(in), 0) {
		t.Fatal("CopyWeightsFrom did not synchronize")
	}
}

func BenchmarkForward33Features(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	net := NewNetwork(rng, MLPSpecs(33, []int{128, 64, 32}, 1, ELU, Identity, 0)...)
	in := tensor.New(1, 33)
	in.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(in)
	}
}
