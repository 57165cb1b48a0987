// Package tensor provides dense float64 matrices and the numeric kernels
// used by the neural-network stack: matrix multiplication (serial and
// goroutine-parallel), transposition, broadcast row operations, element-wise
// maps and reductions, and weight initialization. It is deliberately small:
// only the operations the models in this repository need.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major float64 matrix. The zero value is an empty
// 0x0 matrix. Data is exposed so hot loops elsewhere can index it directly;
// treat it as owned by the Matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	max := m.Rows
	if max > 6 {
		max = 6
	}
	for i := 0; i < max; i++ {
		s += fmt.Sprintf("%v", m.Row(i))
		if i != max-1 {
			s += "; "
		}
	}
	if max < m.Rows {
		s += "; ..."
	}
	return s + "]"
}

// parallelThreshold is the number of multiply-adds below which a product
// stays serial; spawning goroutines for tiny products costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// MatMulInto computes out = a*b into an existing destination, overwriting
// its contents, and returns out, parallelizing across row blocks when the
// product is large enough to amortize goroutine startup. out must be a.Rows x b.Cols and must not alias a or b.
func MatMulInto(a, b, out *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto destination %dx%d for %dx%d product", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	// The serial fast path stays closure-free so steady-state small products
	// are zero-alloc (the closure below escapes to the heap).
	if work := a.Rows * a.Cols * b.Cols; work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 || a.Rows < 2 {
		matMulRange(a, b, out, 0, a.Rows)
		return out
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Cols, func(lo, hi int) {
		matMulRange(a, b, out, lo, hi)
	})
	return out
}

// parallelRows runs fn over [0, rows) split into contiguous row blocks, one
// per worker, when work is large enough to amortize goroutine startup;
// otherwise it calls fn once inline.
func parallelRows(rows, work int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || workers < 2 || rows < 2 {
		fn(0, rows)
		return
	}
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange computes out[lo:hi] = a[lo:hi] * b using an ikj loop order so
// the inner loop streams both b and out rows sequentially. Each destination
// row is zeroed first, so out's prior contents do not matter. There is
// deliberately no skip for zero multiplicands: IEEE 754 says 0 × NaN = NaN,
// and skipping would let a poisoned operand slip through a zero in the other
// (the divergence guard depends on NaNs propagating).
func matMulRange(a, b, out *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTransBInto computes out = a * bᵀ into an existing destination
// without materializing the transpose, overwriting its contents, and
// returns out. Like MatMulInto it splits
// across row blocks when the product is large. out must be a.Rows x b.Rows
// and must not alias a or b.
func MatMulTransBInto(a, b, out *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch %dx%d * (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransBInto destination %dx%d for %dx%d product", out.Rows, out.Cols, a.Rows, b.Rows))
	}
	if work := a.Rows * a.Cols * b.Rows; work < parallelThreshold || runtime.GOMAXPROCS(0) < 2 || a.Rows < 2 {
		matMulTransBRange(a, b, out, 0, a.Rows)
		return out
	}
	parallelRows(a.Rows, a.Rows*a.Cols*b.Rows, func(lo, hi int) {
		matMulTransBRange(a, b, out, lo, hi)
	})
	return out
}

// matMulTransBRange computes out[lo:hi] = a[lo:hi] * bᵀ with a dot-product
// inner loop (both operands stream row-major).
func matMulTransBRange(a, b, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
}

// MatMulTransAAccum accumulates out += aᵀ*b without materializing the
// transpose — the dense-layer weight-gradient kernel (dW += inᵀ·gradOut).
// out must be a.Cols x b.Cols and must not alias a or b. Accumulation per
// destination element runs over a's rows in ascending order.
func MatMulTransAAccum(a, b, out *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransAAccum shape mismatch (%dx%d)T * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAccum destination %dx%d for %dx%d product", out.Rows, out.Cols, a.Cols, b.Cols))
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Data[i*n : i*n+n]
		for k, av := range arow {
			orow := out.Data[k*n : k*n+n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// AddRowVector adds vec to every row of m in place. vec must have m.Cols
// elements; this is the bias-broadcast used by dense layers.
func (m *Matrix) AddRowVector(vec []float64) {
	if len(vec) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(vec), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range vec {
			row[j] += v
		}
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// SelectRows gathers the given rows (copying) into a new matrix.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectRowsInto gathers the given rows into out, reshaping it to
// len(idx) x m.Cols and growing its backing array only when too small —
// the allocation-free sibling of SelectRows for hot batch loops.
func (m *Matrix) SelectRowsInto(idx []int, out *Matrix) *Matrix {
	need := len(idx) * m.Cols
	if cap(out.Data) < need {
		out.Data = make([]float64, need)
	}
	out.Rows, out.Cols, out.Data = len(idx), m.Cols, out.Data[:need]
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// RandN fills m with N(0, std) noise from rng.
func (m *Matrix) RandN(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// HeInit fills m with the He-normal initialization for ReLU-family layers.
func (m *Matrix) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	m.RandN(rng, std)
}
