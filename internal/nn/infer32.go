package nn

import (
	"math"

	"repro/internal/tensor"
)

// This file is the float32 inference program: EnableFloat32 compiles a
// trained network once into a flat list of fused steps over transposed,
// lane-padded float32 weights, and PredictInto routes through it when
// present. Training never touches this path — ForwardTrain invalidates
// any compiled program, and the f64 kernels stay bit-identical — so the
// gradient-check and training-equivalence suites are unaffected by the
// switch.
//
// Precision policy (see DESIGN.md §12): hidden dense layers multiply and
// accumulate in float32 (fixed (s0+s2)+(s1+s3) reduction order, identical
// between the AVX-512, SSE and portable kernels); the output head
// accumulates in float64 and rounds once, because head error lands
// directly on the served prediction. ELU and sigmoid use the fast float32
// exp in internal/tensor (~2 ulp, bit-identical between the SSE and scalar
// forms); the remaining element-wise activations evaluate in float64 on
// the float32 value. Batch-norm folds to a per-feature float32
// scale/shift computed in float64.

type stepKind32 uint8

const (
	stepDense32 stepKind32 = iota
	stepAct32
	stepAffine32
)

type actKind32 uint8

const (
	act32ReLU actKind32 = iota
	act32ELU
	act32LeakyReLU
	act32Sigmoid
	act32Tanh
)

// step32 is one fused operation of the compiled program.
type step32 struct {
	kind stepKind32

	// stepDense32: a hidden layer's weights are packed for the kernels
	// (packed); the head keeps wt, Out x InPad transposed weights with zero
	// padding lanes. bias has OutPad entries. fuseReLU folds a directly
	// following ReLU activation into the kernel epilogue; acc64 marks the
	// head, which accumulates in float64.
	packed        tensor.Packed32
	wt            tensor.Matrix32
	bias          []float32
	in, out       int
	inPad, outPad int
	fuseReLU      bool
	acc64         bool

	// stepAct32: element-wise nonlinearity over the live lanes.
	act actKind32

	// stepAffine32: folded batch-norm scale/shift over the live lanes.
	scale, shift []float32
}

// prog32 is a compiled float32 inference program.
type prog32 struct {
	steps    []step32
	inWidth  int // network input width
	inPad    int
	outWidth int // network output width
	maxPad   int // widest padded activation, for workspace sizing
}

// EnableFloat32 compiles the network's current weights into the float32
// inference program and switches Predict/Predict1/PredictInto onto it.
// Returns false (leaving the f64 path in place) if the architecture
// contains a layer kind the compiler does not support. The program is a
// snapshot: training invalidates it, and callers that mutate weights
// directly must re-enable afterwards.
func (n *Network) EnableFloat32() bool {
	p := compileProg32(n.Layers)
	if p == nil {
		return false
	}
	n.f32.Store(p)
	return true
}

// DisableFloat32 reverts inference to the float64 path.
func (n *Network) DisableFloat32() { n.f32.Store(nil) }

// compileProg32 builds the step list, or returns nil for unsupported
// architectures.
func compileProg32(layers []Layer) *prog32 {
	p := &prog32{inWidth: -1}
	cur := -1 // current activation width
	i := 0
	for i < len(layers) {
		switch l := layers[i].(type) {
		case *Dense:
			if cur != -1 && cur != l.In {
				return nil
			}
			if p.inWidth == -1 {
				p.inWidth = l.In
			}
			st := step32{
				kind: stepDense32,
				in:   l.In, out: l.Out,
				inPad: tensor.PadTo4(l.In), outPad: tensor.PadTo4(l.Out),
			}
			st.wt = tensor.Matrix32{
				Rows: l.Out, Cols: l.In, Stride: st.inPad,
				Data: make([]float32, l.Out*st.inPad),
			}
			for o := 0; o < l.Out; o++ {
				row := st.wt.Row(o)
				for k := 0; k < l.In; k++ {
					row[k] = float32(l.W.Data[k*l.Out+o])
				}
			}
			st.bias = make([]float32, st.outPad)
			for o := 0; o < l.Out; o++ {
				st.bias[o] = float32(l.B.Data[o])
			}
			if i+1 < len(layers) {
				if a, ok := layers[i+1].(*Activation); ok && a.Kind == ReLU {
					st.fuseReLU = true
					i++ // the activation is consumed by the fused epilogue
				}
			}
			p.steps = append(p.steps, st)
			cur = l.Out
		case *Activation:
			if cur == -1 {
				return nil
			}
			var k actKind32
			switch l.Kind {
			case ReLU:
				k = act32ReLU
			case ELU:
				k = act32ELU
			case LeakyReLU:
				k = act32LeakyReLU
			case Sigmoid:
				k = act32Sigmoid
			case Tanh:
				k = act32Tanh
			case Identity:
				i++
				continue
			default:
				return nil
			}
			p.steps = append(p.steps, step32{kind: stepAct32, act: k, out: cur})
		case *Dropout:
			// Inverted dropout is the identity at inference time.
		case *BatchNorm:
			if cur == -1 {
				if p.inWidth == -1 {
					p.inWidth = l.Dim
				}
				cur = l.Dim
			}
			if cur != l.Dim {
				return nil
			}
			st := step32{
				kind:  stepAffine32,
				out:   l.Dim,
				scale: make([]float32, l.Dim),
				shift: make([]float32, l.Dim),
			}
			for j := 0; j < l.Dim; j++ {
				s := l.Gamma.Data[j] / math.Sqrt(l.RunVar[j]+l.Eps)
				st.scale[j] = float32(s)
				st.shift[j] = float32(l.Beta.Data[j] - l.RunMean[j]*s)
			}
			p.steps = append(p.steps, st)
		default:
			return nil
		}
		i++
	}
	if p.inWidth == -1 || cur == -1 {
		return nil
	}
	for j := len(p.steps) - 1; j >= 0; j-- {
		if p.steps[j].kind == stepDense32 {
			p.steps[j].acc64 = true // the head accumulates in float64
			break
		}
	}
	for j := range p.steps {
		if st := &p.steps[j]; st.kind == stepDense32 && !st.acc64 {
			st.packed = tensor.Pack32(&st.wt)
			st.wt = tensor.Matrix32{}
		}
	}
	p.inPad = tensor.PadTo4(p.inWidth)
	p.outWidth = cur
	p.maxPad = p.inPad
	for _, st := range p.steps {
		if st.kind == stepDense32 && st.outPad > p.maxPad {
			p.maxPad = st.outPad
		}
	}
	return p
}

// predictInto runs the compiled program over in (rows x inWidth float64),
// staging into the workspace's float32 ping-pong buffers, and converts
// the final activation back into a float64 matrix owned by ws. NaN in any
// live input lane reaches the output as NaN: the kernels' clamp keeps the
// source operand on NaN and the activations evaluate NaN to NaN.
func (p *prog32) predictInto(n *Network, ws *Workspace, in *tensor.Matrix) *tensor.Matrix {
	if in.Cols != p.inWidth {
		panic("nn: f32 inference input width mismatch")
	}
	rows := in.Rows
	need := rows * p.maxPad
	ws.f32a = grow32(ws.f32a, need)
	ws.f32b = grow32(ws.f32b, need)
	cur, next := ws.f32a, ws.f32b

	for r := 0; r < rows; r++ {
		src := in.Data[r*in.Cols : r*in.Cols+in.Cols]
		drow := cur[r*p.inPad : r*p.inPad+p.inPad]
		for c, v := range src {
			drow[c] = float32(v)
		}
		for c := p.inWidth; c < p.inPad; c++ {
			drow[c] = 0
		}
	}

	stride, width := p.inPad, p.inWidth
	for si := range p.steps {
		st := &p.steps[si]
		switch st.kind {
		case stepDense32:
			aM := tensor.Matrix32{Rows: rows, Cols: st.in, Stride: st.inPad, Data: cur[:rows*st.inPad]}
			dM := tensor.Matrix32{Rows: rows, Cols: st.out, Stride: st.outPad, Data: next[:rows*st.outPad]}
			if st.acc64 {
				// acc64 marks the last dense; nothing downstream reads its
				// padding lanes, so compute only the real outputs.
				tensor.MatMulTransBInto32F64Acc(&dM, &aM, &st.wt, st.bias, st.fuseReLU)
			} else {
				tensor.MatMulTransBInto32(&dM, &aM, &st.packed, st.bias, st.fuseReLU)
			}
			cur, next = next, cur
			stride, width = st.outPad, st.out
		case stepAct32:
			if st.act == act32ELU && eluAlpha == 1 {
				// Branchless SSE ELU over the whole padded region: padding
				// lanes are exactly +0 and elu32(+0) is exactly +0, so the
				// zero-padding invariant survives.
				tensor.EluInPlace32(cur[:rows*stride])
			} else {
				applyAct32(cur, rows, width, stride, st.act)
			}
		case stepAffine32:
			for r := 0; r < rows; r++ {
				row := cur[r*stride : r*stride+width]
				for j, v := range row {
					row[j] = st.scale[j]*v + st.shift[j]
				}
			}
		}
	}

	out := ws.buf(len(n.Layers)-1, rows, width)
	for r := 0; r < rows; r++ {
		src := cur[r*stride : r*stride+width]
		drow := out.Data[r*width : r*width+width]
		for c, v := range src {
			drow[c] = float64(v)
		}
	}
	return out
}

// applyAct32 applies the nonlinearity in place over the live lanes. ELU
// (with the default alpha) is handled by tensor.EluInPlace32 before this
// switch is reached; sigmoid uses the same fast float32 exp, and the
// remaining transcendentals evaluate in float64 on the float32 value.
// ReLU is written as v < 0 so NaN passes through unchanged.
func applyAct32(buf []float32, rows, width, stride int, k actKind32) {
	for r := 0; r < rows; r++ {
		row := buf[r*stride : r*stride+width]
		switch k {
		case act32ReLU:
			for j, v := range row {
				if v < 0 {
					row[j] = 0
				}
			}
		case act32ELU:
			for j, v := range row {
				if !(v > 0) {
					row[j] = float32(eluAlpha * (math.Exp(float64(v)) - 1))
				}
			}
		case act32LeakyReLU:
			for j, v := range row {
				if v < 0 {
					row[j] = float32(leakySlope) * v
				}
			}
		case act32Sigmoid:
			for j, v := range row {
				row[j] = 1 / (1 + tensor.Exp32(-v))
			}
		case act32Tanh:
			for j, v := range row {
				row[j] = float32(math.Tanh(float64(v)))
			}
		}
	}
}

// grow32 returns s resized to n elements, reallocating only on growth.
func grow32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}
