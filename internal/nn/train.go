package nn

import (
	"math"

	"repro/internal/tensor"
)

// TrainWorkspace holds every buffer a ForwardTrain+BackwardTrain pass
// writes: per-layer activations, per-layer input gradients, dropout masks,
// batch-norm statistics, the loss gradient, and the SelectRows gather
// scratch. On a warm trainer the whole batch step — gather, forward, loss,
// backprop, clip, optimizer step — runs with zero steady-state heap
// allocations. A workspace belongs to one goroutine; data-parallel training
// uses one per replica.
type TrainWorkspace struct {
	// xb/yb are the batch gather destinations (SelectRowsInto scratch).
	xb, yb tensor.Matrix
	// grad is the loss-gradient buffer for the built-in losses.
	grad tensor.Matrix
	// fwd[i]/bwd[i] are layer i's output and input-gradient buffers.
	fwd []*tensor.Matrix
	bwd []*tensor.Matrix
	aux []trainAux
}

// trainAux is layer i's backward-pass scratch: cached tensor references for
// dense/activation layers, the dropout mask, and batch-norm statistics.
type trainAux struct {
	in, out *tensor.Matrix // references into fwd buffers (not owned)
	mask    []float64      // dropout
	mean    []float64      // batchnorm batch statistics
	vari    []float64
	std     []float64
	sumG    []float64
	sumGX   []float64
	xhat    tensor.Matrix
}

// NewTrainWorkspace returns an empty training workspace for n's
// architecture; buffers are allocated lazily and grown only when a larger
// batch arrives.
func (n *Network) NewTrainWorkspace() *TrainWorkspace {
	k := len(n.Layers)
	return &TrainWorkspace{
		fwd: make([]*tensor.Matrix, k),
		bwd: make([]*tensor.Matrix, k),
		aux: make([]trainAux, k),
	}
}

// reshape points m at rows x cols, growing its backing array only when too
// small.
func reshape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float64, need)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:need]
	return m
}

func (w *TrainWorkspace) fwdBuf(i, rows, cols int) *tensor.Matrix {
	if w.fwd[i] == nil {
		w.fwd[i] = &tensor.Matrix{}
	}
	return reshape(w.fwd[i], rows, cols)
}

func (w *TrainWorkspace) bwdBuf(i, rows, cols int) *tensor.Matrix {
	if w.bwd[i] == nil {
		w.bwd[i] = &tensor.Matrix{}
	}
	return reshape(w.bwd[i], rows, cols)
}

// growFloats resizes *s to n elements reusing capacity.
func growFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// ForwardTrain runs a training-mode forward pass (dropout active, batch-norm
// batch statistics) writing every activation into ws. The returned matrix
// is owned by ws and must be consumed before the workspace's next use;
// backward state lives in ws, so pair it with BackwardTrain on the same
// workspace.
func (n *Network) ForwardTrain(ws *TrainWorkspace, in *tensor.Matrix) *tensor.Matrix {
	// Training is about to mutate weights, so any compiled float32
	// inference program is a stale snapshot: drop it. Re-enable with
	// EnableFloat32 once training finishes.
	n.f32.Store(nil)
	x := in
	for i, l := range n.Layers {
		switch ll := l.(type) {
		case *Dense:
			if x.Cols != ll.In {
				panic("nn: dense input width mismatch")
			}
			out := ws.fwdBuf(i, x.Rows, ll.Out)
			tensor.MatMulInto(x, ll.W, out)
			out.AddRowVector(ll.B.Data)
			ws.aux[i].in = x
			x = out
		case *Activation:
			out := ws.fwdBuf(i, x.Rows, x.Cols)
			for j, v := range x.Data {
				out.Data[j] = activate(ll.Kind, v)
			}
			ws.aux[i].in, ws.aux[i].out = x, out
			x = out
		case *Dropout:
			if ll.Rate == 0 {
				ws.aux[i].mask = nil
				continue
			}
			keep := 1 - ll.Rate
			scale := 1 / keep
			mask := growFloats(&ws.aux[i].mask, len(x.Data))
			out := ws.fwdBuf(i, x.Rows, x.Cols)
			for j, v := range x.Data {
				if ll.rng.Float64() < keep {
					mask[j] = scale
					out.Data[j] = v * scale
				} else {
					mask[j] = 0
					out.Data[j] = 0
				}
			}
			x = out
		case *BatchNorm:
			x = ll.forwardTrainInto(ws, i, x)
		}
	}
	return x
}

// forwardTrainInto is BatchNorm's training forward into workspace buffers:
// batch statistics (and running-stat updates) for multi-row batches,
// running statistics for single rows.
func (b *BatchNorm) forwardTrainInto(ws *TrainWorkspace, i int, in *tensor.Matrix) *tensor.Matrix {
	if in.Cols != b.Dim {
		panic("nn: batchnorm input width mismatch")
	}
	aux := &ws.aux[i]
	var mean, variance []float64
	if in.Rows > 1 {
		mean = growFloats(&aux.mean, b.Dim)
		variance = growFloats(&aux.vari, b.Dim)
		for j := range mean {
			mean[j], variance[j] = 0, 0
		}
		for r := 0; r < in.Rows; r++ {
			for j, v := range in.Row(r) {
				mean[j] += v
			}
		}
		inv := 1.0 / float64(in.Rows)
		for j := range mean {
			mean[j] *= inv
		}
		for r := 0; r < in.Rows; r++ {
			for j, v := range in.Row(r) {
				d := v - mean[j]
				variance[j] += d * d
			}
		}
		for j := range variance {
			variance[j] *= inv
		}
		for j := range mean {
			b.RunMean[j] = b.Momentum*b.RunMean[j] + (1-b.Momentum)*mean[j]
			b.RunVar[j] = b.Momentum*b.RunVar[j] + (1-b.Momentum)*variance[j]
		}
	} else {
		mean, variance = b.RunMean, b.RunVar
	}
	std := growFloats(&aux.std, b.Dim)
	for j := range std {
		std[j] = math.Sqrt(variance[j] + b.Eps)
	}
	xhat := reshape(&aux.xhat, in.Rows, in.Cols)
	out := ws.fwdBuf(i, in.Rows, in.Cols)
	for r := 0; r < in.Rows; r++ {
		row := in.Row(r)
		xr := xhat.Row(r)
		or := out.Row(r)
		for j, v := range row {
			xr[j] = (v - mean[j]) / std[j]
			or[j] = b.Gamma.Data[j]*xr[j] + b.Beta.Data[j]
		}
	}
	return out
}

// BackwardTrain propagates the loss gradient through the stack using ws's
// cached forward state, accumulating parameter gradients — the dense weight
// gradient streams through MatMulTransAAccum instead of materializing inᵀ
// and a product matrix.
func (n *Network) BackwardTrain(ws *TrainWorkspace, grad *tensor.Matrix) {
	g := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		switch ll := n.Layers[i].(type) {
		case *Dense:
			tensor.MatMulTransAAccum(ws.aux[i].in, g, ll.gradW)
			for r := 0; r < g.Rows; r++ {
				for j, v := range g.Row(r) {
					ll.gradB.Data[j] += v
				}
			}
			out := ws.bwdBuf(i, g.Rows, ll.In)
			tensor.MatMulTransBInto(g, ll.W, out)
			g = out
		case *Activation:
			out := ws.bwdBuf(i, g.Rows, g.Cols)
			ain, aout := ws.aux[i].in, ws.aux[i].out
			for j, gv := range g.Data {
				out.Data[j] = gv * activateGrad(ll.Kind, ain.Data[j], aout.Data[j])
			}
			g = out
		case *Dropout:
			mask := ws.aux[i].mask
			if mask == nil {
				continue
			}
			out := ws.bwdBuf(i, g.Rows, g.Cols)
			for j, gv := range g.Data {
				out.Data[j] = gv * mask[j]
			}
			g = out
		case *BatchNorm:
			g = ll.backwardInto(ws, i, g)
		}
	}
}

// backwardInto is BatchNorm's backward pass over workspace state: the
// standard batch-norm gradient with batch statistics.
func (b *BatchNorm) backwardInto(ws *TrainWorkspace, i int, gradOut *tensor.Matrix) *tensor.Matrix {
	aux := &ws.aux[i]
	n := float64(gradOut.Rows)
	out := ws.bwdBuf(i, gradOut.Rows, gradOut.Cols)
	sumG := growFloats(&aux.sumG, b.Dim)
	sumGX := growFloats(&aux.sumGX, b.Dim)
	for j := range sumG {
		sumG[j], sumGX[j] = 0, 0
	}
	for r := 0; r < gradOut.Rows; r++ {
		gr := gradOut.Row(r)
		xr := aux.xhat.Row(r)
		for j, g := range gr {
			sumG[j] += g
			sumGX[j] += g * xr[j]
		}
	}
	for j := 0; j < b.Dim; j++ {
		b.gradGamma.Data[j] += sumGX[j]
		b.gradBeta.Data[j] += sumG[j]
	}
	std := aux.std
	for r := 0; r < gradOut.Rows; r++ {
		gr := gradOut.Row(r)
		xr := aux.xhat.Row(r)
		or := out.Row(r)
		for j, g := range gr {
			or[j] = (b.Gamma.Data[j] / std[j]) * (g - sumG[j]/n - xr[j]*sumGX[j]/n)
		}
	}
	return out
}
