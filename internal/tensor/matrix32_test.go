package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// NewMatrix32 allocates a zeroed rows x cols matrix whose stride is cols
// rounded up to the kernel lane width.
func NewMatrix32(rows, cols int) *Matrix32 {
	stride := PadTo4(cols)
	return &Matrix32{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, rows*stride)}
}

func randMatrix32(rows, cols int, rng *rand.Rand) *Matrix32 {
	m := NewMatrix32(rows, cols)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		for c := 0; c < cols; c++ {
			row[c] = float32(rng.NormFloat64())
		}
	}
	return m
}

// TestMatMul32AsmMatchesGo pins the bit-identity contract between every
// kernel this host runs (AVX-512, SSE) and the portable kernel over
// randomized shapes, including NaN, ±Inf, and −0 inputs. Off amd64 the Go
// kernel is the only one and the test is vacuous by construction.
func TestMatMul32AsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{ // rows, K, outs
		{1, 33, 64}, {1, 64, 32}, {1, 32, 4}, {3, 5, 8},
		{16, 33, 64}, {7, 128, 64}, {2, 4, 4}, {1, 36, 128},
		{2, 33, 12}, {1, 8, 20}, {3, 64, 44}, {1, 32, 3},
	}
	for _, sh := range shapes {
		rows, k, outs := sh[0], sh[1], sh[2]
		a := randMatrix32(rows, k, rng)
		b := randMatrix32(outs, k, rng)
		w := Pack32(b)
		bias := make([]float32, w.outs)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		// Sprinkle specials into the live lanes.
		a.Data[0] = float32(math.Copysign(0, -1))
		if rows > 1 {
			a.Row(1)[0] = float32(math.Inf(1))
		}
		for _, relu := range []bool{false, true} {
			want := NewMatrix32(rows, w.outs)
			lim := reluLimit(relu)
			for r := 0; r < rows; r++ {
				matmulTransB32Go(a.Row(r), &w, bias, want.Row(r), lim)
			}
			for _, name := range Kernels32() {
				got := NewMatrix32(rows, w.outs)
				restore := UseKernel32(name)
				MatMulTransBInto32(got, a, &w, bias, relu)
				restore()
				for i, wv := range want.Data {
					g := got.Data[i]
					if math.Float32bits(g) != math.Float32bits(wv) {
						t.Fatalf("%s shape %v relu=%v: elem %d: %x, go %x", name, sh, relu, i, math.Float32bits(g), math.Float32bits(wv))
					}
				}
			}
		}
	}
}

// TestPack32Layout pins the packed layout: chunk c of block b holds inputs
// 4c…4c+3 of outputs 4b…4b+3 in turn, and padding outputs are zero.
func TestPack32Layout(t *testing.T) {
	m := NewMatrix32(6, 8)
	for o := 0; o < 6; o++ {
		for k := 0; k < 8; k++ {
			m.Row(o)[k] = float32(100*o + k)
		}
	}
	w := Pack32(m)
	if w.outs != 8 || w.inPad != 8 || len(w.data) != 64 {
		t.Fatalf("outs %d inPad %d len %d, want 8 8 64", w.outs, w.inPad, len(w.data))
	}
	for o := 0; o < 8; o++ {
		for k := 0; k < 8; k++ {
			want := float32(0)
			if o < 6 {
				want = float32(100*o + k)
			}
			b, c, j, l := o/4, k/4, o%4, k%4
			if got := w.data[b*32+c*16+j*4+l]; got != want {
				t.Fatalf("output %d input %d: %v, want %v", o, k, got, want)
			}
		}
	}
}

// TestMatMul32NaNPropagates pins the serving contract that a poisoned
// feature reaches the output as NaN instead of being clamped away by the
// fused ReLU — the f32 twin of the f64 MatMulInto NaN-masking guarantee.
func TestMatMul32NaNPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix32(2, 33, rng)
	b := randMatrix32(8, 33, rng)
	bias := make([]float32, 8)
	a.Row(1)[5] = float32(math.NaN())
	w := Pack32(b)
	for _, relu := range []bool{false, true} {
		dst := NewMatrix32(2, 8)
		MatMulTransBInto32(dst, a, &w, bias, relu)
		for c := 0; c < 8; c++ {
			if v := dst.Row(0)[c]; math.IsNaN(float64(v)) {
				t.Fatalf("relu=%v: clean row produced NaN at %d", relu, c)
			}
			if v := dst.Row(1)[c]; !math.IsNaN(float64(v)) {
				t.Fatalf("relu=%v: poisoned row output %d = %v, want NaN", relu, c, v)
			}
		}
		dst64 := NewMatrix32(2, 8)
		MatMulTransBInto32F64Acc(dst64, a, b, bias, relu)
		if !math.IsNaN(float64(dst64.Row(1)[0])) {
			t.Fatalf("relu=%v: f64-acc head did not propagate NaN", relu)
		}
	}
}

// TestMatMul32ZeroPaddingExact checks that padding lanes contribute
// nothing: widening K from 33 to its padded stride with zero weights and
// zero activations must leave every output bit unchanged.
func TestMatMul32ZeroPaddingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix32(4, 33, rng) // stride 36, lanes 33..35 zero
	b := randMatrix32(8, 33, rng)
	bias := make([]float32, 8)
	dst := NewMatrix32(4, 8)
	w := Pack32(b)
	MatMulTransBInto32(dst, a, &w, bias, true)

	// Same values declared as a full-width 36-column problem.
	a2 := NewMatrix32(4, 36)
	copy(a2.Data, a.Data)
	b2 := NewMatrix32(8, 36)
	copy(b2.Data, b.Data)
	dst2 := NewMatrix32(4, 8)
	w2 := Pack32(b2)
	MatMulTransBInto32(dst2, a2, &w2, bias, true)
	for i := range dst.Data {
		if math.Float32bits(dst.Data[i]) != math.Float32bits(dst2.Data[i]) {
			t.Fatalf("elem %d: padded %v full %v", i, dst.Data[i], dst2.Data[i])
		}
	}
}

// TestMatMul32F64AccClose sanity-checks the head variant against a naive
// f64 reference: with f64 accumulation the only rounding left is the final
// float32 store and the bias add.
func TestMatMul32F64AccClose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix32(3, 128, rng)
	b := randMatrix32(4, 128, rng)
	bias := []float32{0.1, -0.2, 0.3, -0.4}
	dst := NewMatrix32(3, 4)
	MatMulTransBInto32F64Acc(dst, a, b, bias, false)
	for r := 0; r < 3; r++ {
		for o := 0; o < 4; o++ {
			var ref float64
			for k := 0; k < 128; k++ {
				ref += float64(a.Row(r)[k]) * float64(b.Row(o)[k])
			}
			ref += float64(bias[o])
			if got := float64(dst.Row(r)[o]); math.Abs(got-ref) > 1e-5*(1+math.Abs(ref)) {
				t.Fatalf("r=%d o=%d: got %v want %v", r, o, got, ref)
			}
		}
	}
}

func BenchmarkMatMul32Batch64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix32(64, 33, rng)
	w := Pack32(randMatrix32(64, 33, rng))
	bias := make([]float32, 64)
	dst := NewMatrix32(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto32(dst, a, &w, bias, true)
	}
}

func BenchmarkMatMul32Single(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix32(1, 33, rng)
	w := Pack32(randMatrix32(64, 33, rng))
	bias := make([]float32, 64)
	dst := NewMatrix32(1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto32(dst, a, &w, bias, true)
	}
}
