package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// LayerSpec declares one layer of a network architecture. Specs are the
// serializable description from which layers are instantiated, so a saved
// model can be rebuilt without reflection.
type LayerSpec struct {
	Kind       string         // "dense", "activation", "dropout", "batchnorm"
	In, Out    int            // dense only
	Activation ActivationKind // activation only
	Rate       float64        // dropout only
	Dim        int            // batchnorm only
}

// DenseSpec declares a fully connected layer.
func DenseSpec(in, out int) LayerSpec { return LayerSpec{Kind: "dense", In: in, Out: out} }

// ActivationSpec declares a nonlinearity.
func ActivationSpec(k ActivationKind) LayerSpec {
	return LayerSpec{Kind: "activation", Activation: k}
}

// DropoutSpec declares a dropout layer.
func DropoutSpec(rate float64) LayerSpec { return LayerSpec{Kind: "dropout", Rate: rate} }

// BatchNormSpec declares a batch-normalization layer.
func BatchNormSpec(dim int) LayerSpec { return LayerSpec{Kind: "batchnorm", Dim: dim} }

// Network is a sequential stack of layers.
type Network struct {
	Specs  []LayerSpec
	Layers []Layer

	// wsPool recycles inference workspaces so concurrent Predict calls are
	// race-safe (each Get is exclusive) and allocation-free after warm-up.
	wsPool sync.Pool

	// f32 holds the compiled float32 inference program when EnableFloat32
	// is active (nil otherwise). Atomic so enabling/disabling is safe
	// against concurrent Predict calls; training stores nil.
	f32 atomic.Pointer[prog32]
}

// NewNetwork instantiates the given architecture with weights drawn from rng.
func NewNetwork(rng *rand.Rand, specs ...LayerSpec) *Network {
	n := &Network{Specs: append([]LayerSpec(nil), specs...)}
	for _, s := range specs {
		switch s.Kind {
		case "dense":
			n.Layers = append(n.Layers, NewDense(s.In, s.Out, rng))
		case "activation":
			n.Layers = append(n.Layers, NewActivation(s.Activation))
		case "dropout":
			n.Layers = append(n.Layers, NewDropout(s.Rate, rng))
		case "batchnorm":
			n.Layers = append(n.Layers, NewBatchNorm(s.Dim))
		default:
			panic(fmt.Sprintf("nn: unknown layer kind %q", s.Kind))
		}
	}
	return n
}

// MLPSpecs is a convenience builder for the paper-style feed-forward nets: a
// stack of dense+activation(+dropout) hidden layers and a dense output with
// outAct (Identity for regression, Sigmoid for binary classification).
func MLPSpecs(in int, hidden []int, out int, act, outAct ActivationKind, dropout float64) []LayerSpec {
	var specs []LayerSpec
	prev := in
	for _, h := range hidden {
		specs = append(specs, DenseSpec(prev, h), ActivationSpec(act))
		if dropout > 0 {
			specs = append(specs, DropoutSpec(dropout))
		}
		prev = h
	}
	specs = append(specs, DenseSpec(prev, out))
	if outAct != Identity {
		specs = append(specs, ActivationSpec(outAct))
	}
	return specs
}

// Params returns every parameter/gradient pair in deterministic order.
func (n *Network) Params() []Param {
	var ps []Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Predict runs inference (no dropout, running batch-norm stats) through a
// pooled workspace: intermediate activations reuse warm buffers and only the
// returned output matrix is freshly allocated (a constant two allocations
// per call, regardless of batch size).
func (n *Network) Predict(in *tensor.Matrix) *tensor.Matrix {
	ws := n.AcquireWorkspace()
	out := n.PredictInto(ws, in).Clone()
	n.ReleaseWorkspace(ws)
	return out
}

// Predict1 runs inference on a single feature vector and returns the first
// output unit — the common case for both of TROUT's heads. Steady-state it
// performs zero heap allocations: the input header and every activation
// buffer come from the network's workspace pool.
func (n *Network) Predict1(features []float64) float64 {
	ws := n.AcquireWorkspace()
	ws.in.Rows, ws.in.Cols, ws.in.Data = 1, len(features), features
	out := n.PredictInto(ws, &ws.in)
	v := out.Data[0]
	ws.in.Data = nil // do not retain the caller's slice in the pool
	n.ReleaseWorkspace(ws)
	return v
}

// CloneFor returns a structurally identical network with freshly initialized
// layers (weights drawn from rng); used for data-parallel training replicas
// before weights are synchronized from the master.
func (n *Network) CloneFor(rng *rand.Rand) *Network {
	return NewNetwork(rng, n.Specs...)
}

// CopyWeightsFrom copies src's parameter values (and batch-norm running
// stats) into n. Panics if architectures differ.
func (n *Network) CopyWeightsFrom(src *Network) {
	dst, sp := n.Params(), src.Params()
	if len(dst) != len(sp) {
		panic("nn: CopyWeightsFrom architecture mismatch")
	}
	for i := range dst {
		if len(dst[i].Value.Data) != len(sp[i].Value.Data) {
			panic("nn: CopyWeightsFrom parameter shape mismatch")
		}
		copy(dst[i].Value.Data, sp[i].Value.Data)
	}
	for i, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			sbn := src.Layers[i].(*BatchNorm)
			copy(bn.RunMean, sbn.RunMean)
			copy(bn.RunVar, sbn.RunVar)
		}
	}
}

// netDTO is the gob wire form of a network.
type netDTO struct {
	Specs   []LayerSpec
	Weights []*tensor.Matrix
	BNMean  [][]float64
	BNVar   [][]float64
}

// Save writes the network (architecture + weights) to w with gob.
func (n *Network) Save(w io.Writer) error {
	dto := netDTO{Specs: n.Specs}
	for _, p := range n.Params() {
		dto.Weights = append(dto.Weights, p.Value)
	}
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			dto.BNMean = append(dto.BNMean, bn.RunMean)
			dto.BNVar = append(dto.BNVar, bn.RunVar)
		}
	}
	return gob.NewEncoder(w).Encode(dto)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var dto netDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	n := NewNetwork(rand.New(rand.NewSource(0)), dto.Specs...)
	ps := n.Params()
	if len(ps) != len(dto.Weights) {
		return nil, fmt.Errorf("nn: load: %d weight blobs for %d params", len(dto.Weights), len(ps))
	}
	for i, p := range ps {
		if len(p.Value.Data) != len(dto.Weights[i].Data) {
			return nil, fmt.Errorf("nn: load: param %d size mismatch", i)
		}
		copy(p.Value.Data, dto.Weights[i].Data)
	}
	bi := 0
	for _, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			if bi >= len(dto.BNMean) {
				return nil, fmt.Errorf("nn: load: missing batch-norm stats")
			}
			copy(bn.RunMean, dto.BNMean[bi])
			copy(bn.RunVar, dto.BNVar[bi])
			bi++
		}
	}
	return n, nil
}

// Bytes serializes the network to a byte slice (for embedding in bundles).
func (n *Network) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FromBytes deserializes a network written by Bytes.
func FromBytes(b []byte) (*Network, error) { return Load(bytes.NewReader(b)) }
