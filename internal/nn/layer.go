package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network: *Dense, *Activation,
// *Dropout or *BatchNorm. The forward and backward arithmetic of all four
// lives in the network's type switches (PredictInto for inference,
// ForwardTrain/BackwardTrain for training), which write into caller-owned
// workspaces; a layer itself only holds its parameters.
type Layer interface {
	// Params returns parameter/gradient pairs for the optimizer
	// (nil-safe: parameter-free layers return nothing).
	Params() []Param
}

// Param couples a parameter matrix with its accumulated gradient.
type Param struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Dense is a fully connected layer: out = in·W + b.
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In x Out
	B       *tensor.Matrix // 1 x Out
	gradW   *tensor.Matrix
	gradB   *tensor.Matrix
}

// NewDense builds a dense layer with He initialization (appropriate for the
// ReLU/ELU family used throughout the paper's models).
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %d -> %d", in, out))
	}
	d := &Dense{
		In: in, Out: out,
		W:     tensor.New(in, out),
		B:     tensor.New(1, out),
		gradW: tensor.New(in, out),
		gradB: tensor.New(1, out),
	}
	d.W.HeInit(rng, in)
	return d
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	return []Param{{d.W, d.gradW}, {d.B, d.gradB}}
}

// Activation applies an element-wise nonlinearity.
type Activation struct {
	Kind ActivationKind
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(kind ActivationKind) *Activation {
	if !ValidActivation(kind) {
		panic(fmt.Sprintf("nn: unknown activation %q", kind))
	}
	return &Activation{Kind: kind}
}

// Params implements Layer.
func (a *Activation) Params() []Param { return nil }

// Dropout zeroes a fraction Rate of activations during training and scales
// the survivors by 1/(1−Rate) (inverted dropout), so inference is a no-op.
type Dropout struct {
	Rate float64
	rng  *rand.Rand
}

// NewDropout returns a dropout layer with the given drop probability.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Params implements Layer.
func (d *Dropout) Params() []Param { return nil }

// BatchNorm normalizes each feature over the batch and applies a learned
// scale (gamma) and shift (beta). The paper tested batch normalization on the
// regressor and rejected it; the layer exists for that ablation (A4).
type BatchNorm struct {
	Dim      int
	Gamma    *tensor.Matrix // 1 x Dim
	Beta     *tensor.Matrix // 1 x Dim
	Momentum float64
	Eps      float64
	// Running statistics used at inference time.
	RunMean []float64
	RunVar  []float64

	gradGamma *tensor.Matrix
	gradBeta  *tensor.Matrix
}

// NewBatchNorm returns a batch-norm layer over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Dim:       dim,
		Gamma:     tensor.New(1, dim),
		Beta:      tensor.New(1, dim),
		Momentum:  0.9,
		Eps:       1e-5,
		RunMean:   make([]float64, dim),
		RunVar:    make([]float64, dim),
		gradGamma: tensor.New(1, dim),
		gradBeta:  tensor.New(1, dim),
	}
	bn.Gamma.Fill(1)
	for j := range bn.RunVar {
		bn.RunVar[j] = 1
	}
	return bn
}

// Params implements Layer.
func (b *BatchNorm) Params() []Param {
	return []Param{{b.Gamma, b.gradGamma}, {b.Beta, b.gradBeta}}
}
