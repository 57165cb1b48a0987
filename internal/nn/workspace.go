package nn

import (
	"math"

	"repro/internal/tensor"
)

// Workspace holds the per-layer activation buffers for an inference forward
// pass, so a steady-state Predict performs no heap allocations: every dense,
// activation, and batch-norm output is written into a buffer that is sized
// once per batch shape and reused afterwards. A workspace belongs to one
// goroutine at a time — acquire one per concurrent caller (the Network's
// internal pool does this for Predict/Predict1) and never share it.
type Workspace struct {
	// in is a reusable matrix header for wrapping a caller's feature slice
	// without allocating (Predict1's path).
	in tensor.Matrix
	// bufs holds one output buffer per layer index; identity layers
	// (inference-mode dropout) leave their slot nil.
	bufs []*tensor.Matrix

	// f32a/f32b are the ping-pong activation buffers for the compiled
	// float32 program (see infer32.go); grown on demand like bufs.
	f32a, f32b []float32
}

// NewWorkspace returns an empty workspace for n's architecture. Buffers are
// allocated lazily on first use and grown only when a larger batch arrives.
func (n *Network) NewWorkspace() *Workspace {
	return &Workspace{bufs: make([]*tensor.Matrix, len(n.Layers))}
}

// buf returns the i-th layer buffer shaped rows x cols, reusing the backing
// array whenever it is big enough.
func (w *Workspace) buf(i, rows, cols int) *tensor.Matrix {
	need := rows * cols
	m := w.bufs[i]
	if m == nil || cap(m.Data) < need {
		m = tensor.New(rows, cols)
		w.bufs[i] = m
		return m
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:need]
	return m
}

// AcquireWorkspace takes a workspace from the network's internal pool (or
// makes one). Callers running explicit batch loops pair it with PredictInto
// and return it with ReleaseWorkspace; casual callers can just use Predict,
// which does this internally.
func (n *Network) AcquireWorkspace() *Workspace {
	if v := n.wsPool.Get(); v != nil {
		ws := v.(*Workspace)
		if len(ws.bufs) == len(n.Layers) {
			return ws
		}
	}
	return n.NewWorkspace()
}

// ReleaseWorkspace returns a workspace to the pool. Any matrix returned by
// PredictInto with this workspace is invalid afterwards.
func (n *Network) ReleaseWorkspace(ws *Workspace) {
	if ws != nil {
		n.wsPool.Put(ws)
	}
}

// PredictInto runs an inference forward pass (no dropout, running batch-norm
// stats) writing every intermediate activation into ws. The returned matrix
// is owned by ws: it is valid until the workspace's next use or release, so
// copy anything that must outlive it. With EnableFloat32 active the compiled
// float32 program runs instead (see infer32.go for its precision policy).
func (n *Network) PredictInto(ws *Workspace, in *tensor.Matrix) *tensor.Matrix {
	if p := n.f32.Load(); p != nil {
		return p.predictInto(n, ws, in)
	}
	x := in
	for i, l := range n.Layers {
		switch ll := l.(type) {
		case *Dense:
			if x.Cols != ll.In {
				panic("nn: dense input width mismatch")
			}
			out := ws.buf(i, x.Rows, ll.Out)
			tensor.MatMulInto(x, ll.W, out)
			out.AddRowVector(ll.B.Data)
			x = out
		case *Activation:
			out := ws.buf(i, x.Rows, x.Cols)
			for j, v := range x.Data {
				out.Data[j] = activate(ll.Kind, v)
			}
			x = out
		case *Dropout:
			// Inverted dropout is the identity at inference time.
		case *BatchNorm:
			x = ll.inferInto(x, ws.buf(i, x.Rows, x.Cols))
		}
	}
	return x
}

// inferInto is BatchNorm's inference forward (running statistics) into a
// caller-provided destination.
func (b *BatchNorm) inferInto(in, out *tensor.Matrix) *tensor.Matrix {
	if in.Cols != b.Dim {
		panic("nn: batchnorm input width mismatch")
	}
	for i := 0; i < in.Rows; i++ {
		row := in.Row(i)
		or := out.Row(i)
		for j, v := range row {
			xhat := (v - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
			or[j] = b.Gamma.Data[j]*xhat + b.Beta.Data[j]
		}
	}
	return out
}
