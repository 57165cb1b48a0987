package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New matrix not zeroed")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dims")
		}
	}()
	New(-1, 2)
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// Equal reports whether m and o have identical shape and elements within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// naiveMatMul is the reference product the kernels are checked against: a
// plain triple loop, each element accumulated over k in ascending order.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func matMul(a, b *Matrix) *Matrix       { return MatMulInto(a, b, New(a.Rows, b.Cols)) }
func matMulTransB(a, b *Matrix) *Matrix { return MatMulTransBInto(a, b, New(a.Rows, b.Rows)) }

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := matMul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5)
	a.RandN(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !matMul(a, id).Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
	if !matMul(id, a).Equal(a, 1e-12) {
		t.Fatal("I*A != A")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	matMul(New(2, 3), New(2, 3))
}

// TestMatMulParallelMatchesSerial checks the goroutine-parallel path against
// the direct serial kernel on a product large enough to trigger parallelism.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(70, 80)
	a.RandN(rng, 1)
	b := New(80, 90)
	b.RandN(rng, 1)
	got := matMul(a, b)
	want := New(70, 90)
	matMulRange(a, b, want, 0, a.Rows)
	if !got.Equal(want, 1e-9) {
		t.Fatal("parallel MatMul differs from serial")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 6)
	a.RandN(rng, 1)
	b := New(5, 6)
	b.RandN(rng, 1)
	got := matMulTransB(a, b)
	want := naiveMatMul(a, transpose(b))
	if !got.Equal(want, 1e-9) {
		t.Fatal("MatMulTransBInto != A*B^T")
	}
}

// Property: (AB)^T == B^T A^T.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(6) + 1
		k := rng.Intn(6) + 1
		n := rng.Intn(6) + 1
		a := New(m, k)
		a.RandN(rng, 1)
		b := New(k, n)
		b.RandN(rng, 1)
		return transpose(matMul(a, b)).Equal(matMul(transpose(b), transpose(a)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVector([]float64{10, 20})
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if !m.Equal(want, 0) {
		t.Fatalf("AddRowVector = %v", m)
	}
}

func TestSumSelectRowsClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Sum() != 21 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	sel := m.SelectRows([]int{2, 0})
	if sel.At(0, 0) != 5 || sel.At(1, 1) != 2 {
		t.Fatalf("SelectRows = %v", sel)
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases data")
	}
}

func TestZeroFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(7)
	if m.Sum() != 28 {
		t.Fatal("Fill wrong")
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatal("Zero wrong")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := New(50, 50)
	m.HeInit(rng, 50)
	var sq float64
	for _, v := range m.Data {
		sq += v * v
	}
	std := math.Sqrt(sq / float64(len(m.Data)))
	want := math.Sqrt(2.0 / 50.0)
	if std < want*0.8 || std > want*1.2 {
		t.Fatalf("He std %v, want ≈ %v", std, want)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(128, 128)
	x.RandN(rng, 1)
	y := New(128, 128)
	y.RandN(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(x, y)
	}
}

func BenchmarkMatMulSerial128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(128, 128)
	x.RandN(rng, 1)
	y := New(128, 128)
	y.RandN(rng, 1)
	out := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Zero()
		matMulRange(x, y, out, 0, x.Rows)
	}
}
