package tensor

import "sync"

// pool recycles matrix backing arrays so steady-state hot paths (batched
// inference, per-request feature staging) stop hitting the heap. Matrices
// are pooled by capacity, not shape: Get reshapes whatever buffer comes
// back, growing it only when too small.
var pool = sync.Pool{}

// Get returns a rows x cols matrix whose contents are unspecified — callers
// must overwrite every element (MatMulInto and the nn inference kernels do).
// Return it with Put when done.
func Get(rows, cols int) *Matrix {
	need := rows * cols
	if v := pool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= need {
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:need]
			return m
		}
	}
	return New(rows, cols)
}

// Put returns a matrix obtained from Get to the pool. The caller must not
// use m (or any row view of it) afterwards. nil is a no-op, so deferred
// cleanup of conditionally-acquired buffers stays branch-free.
func Put(m *Matrix) {
	if m == nil || cap(m.Data) == 0 {
		return
	}
	pool.Put(m)
}
