package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestMatMulNaNPropagatesThroughZero is the regression test for the
// zero-skip bug: matMulRange used to skip av == 0 multiplicands, which
// silently masked a NaN (or Inf) in the other operand — IEEE 754 says
// 0 × NaN = NaN, so a poisoned activation must survive a zero-weight row.
func TestMatMulNaNPropagatesThroughZero(t *testing.T) {
	a := FromRows([][]float64{{0, 1}})
	b := FromRows([][]float64{{math.NaN(), 2}, {3, 4}})
	out := matMul(a, b)
	// out[0][0] = 0*NaN + 1*3 = NaN, out[0][1] = 0*2 + 1*4 = 4.
	if !math.IsNaN(out.At(0, 0)) {
		t.Fatalf("NaN in b masked by zero in a: got %v", out.At(0, 0))
	}
	if out.At(0, 1) != 4 {
		t.Fatalf("out[0][1] = %v, want 4", out.At(0, 1))
	}

	// Same through the transposed kernel.
	outT := matMulTransB(a, transpose(b))
	if !math.IsNaN(outT.At(0, 0)) {
		t.Fatalf("NaN masked in MatMulTransBInto: got %v", outT.At(0, 0))
	}

	// And an Inf survives too.
	b.Set(0, 0, math.Inf(1))
	if got := matMul(a, b).At(0, 0); !math.IsNaN(got) {
		// 0 * +Inf = NaN per IEEE 754.
		t.Fatalf("0*Inf = %v, want NaN", got)
	}
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestMatMulIntoMatchesMatMul checks both kernels, serial and parallel
// shapes, against the naive triple loop bit for bit, on dirty destinations.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][3]int{{1, 33, 64}, {17, 8, 5}, {130, 70, 90}} {
		a := randMat(rng, shape[0], shape[1])
		b := randMat(rng, shape[1], shape[2])
		want := naiveMatMul(a, b)
		dst := New(shape[0], shape[2])
		dst.Fill(99) // prior contents must not leak through
		if got := MatMulInto(a, b, dst); !got.Equal(want, 0) {
			t.Fatalf("MatMulInto differs from the naive product at %v", shape)
		}
		dstT := New(shape[0], shape[2])
		dstT.Fill(-7)
		if gotT := MatMulTransBInto(a, transpose(b), dstT); !gotT.Equal(want, 0) {
			t.Fatalf("MatMulTransBInto differs from the naive product at %v", shape)
		}
	}
}

// TestMatMulTransBParallelMatchesSerial pushes MatMulTransBInto over the
// parallel threshold and checks the split agrees with a serial range pass.
func TestMatMulTransBParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 80, 70)
	b := randMat(rng, 90, 70) // work = 80*70*90 > parallelThreshold
	got := matMulTransB(a, b)
	want := New(80, 90)
	matMulTransBRange(a, b, want, 0, a.Rows)
	if !got.Equal(want, 0) {
		t.Fatal("parallel MatMulTransBInto differs from serial")
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"into-wrong-dst":   func() { MatMulInto(New(2, 3), New(3, 4), New(2, 5)) },
		"transb-wrong-dst": func() { MatMulTransBInto(New(2, 3), New(4, 3), New(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPoolReuseAndGrowth(t *testing.T) {
	m := Get(4, 8)
	if m.Rows != 4 || m.Cols != 8 || len(m.Data) != 32 {
		t.Fatalf("Get shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Fill(3)
	Put(m)
	small := Get(2, 2) // a pooled buffer comes back reshaped
	if small.Rows != 2 || small.Cols != 2 || len(small.Data) != 4 {
		t.Fatalf("reused Get shape %dx%d len %d", small.Rows, small.Cols, len(small.Data))
	}
	Put(small)
	// A bigger request than anything pooled must still come back right.
	big := Get(100, 100)
	if big.Rows != 100 || len(big.Data) != 10000 {
		t.Fatal("pool returned undersized matrix")
	}
	Put(big)
	Put(nil) // no-op
}

// TestMatMulIntoSteadyStateAllocs locks in the point of the Into variants:
// after warm-up, a matmul into a reused destination does not allocate.
func TestMatMulIntoSteadyStateAllocs(t *testing.T) {
	a, b := New(4, 16), New(16, 8)
	out := New(4, 8)
	allocs := testing.AllocsPerRun(200, func() { MatMulInto(a, b, out) })
	if allocs > 0 {
		t.Fatalf("MatMulInto allocates %.1f per run, want 0", allocs)
	}
}
