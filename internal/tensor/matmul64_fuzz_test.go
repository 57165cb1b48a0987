package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzMatMul64 pins the f64 row kernel's contract on arbitrary bit
// patterns. Every kernel this host runs, called directly and not only the
// dispatched one, must give the Go loop's bits for every non-NaN output
// and NaN wherever the loop gives NaN. The shapes are widths 1…160, 1…48
// terms, scalar strides 1…4 and row strides of the width plus 0…8, in the
// zeroing and the accumulating form, and no kernel may write past
// dst[n-1]. MatMulInto, MatMulTransBInto and MatMulTransAAccum then run
// on each kernel against their own Go loops on the same operands. bits
// supplies float64 words (NaN payloads, ±0, ±Inf, subnormals) that
// replace a share density/255 of the otherwise normal operands and
// initial outputs.
func FuzzMatMul64(f *testing.F) {
	words := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	specials := words(
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000012345, 0x7ff0000000000001, 0xfff0000000012345, // quiet and signaling NaNs
		0x0000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000, // ±0, ±Inf
		0x0000000000000001, 0x800fffffffffffff, 0x0008000000000000, // subnormals
		0x7fefffffffffffff, 0xffefffffffffffff, 0x3ff0000000000000, // ±MaxFloat64, 1
	)
	f.Add(uint8(32), uint8(7), uint8(0), uint8(2), true, uint8(0), []byte(nil)) // width 33
	f.Add(uint8(6), uint8(40), uint8(5), uint8(0), false, uint8(16), specials)  // width 7
	f.Add(uint8(0), uint8(0), uint8(3), uint8(5), true, uint8(128), specials)   // width 1, one term
	f.Add(uint8(159), uint8(47), uint8(35), uint8(4), false, uint8(255), specials)
	f.Add(uint8(63), uint8(12), uint8(1), uint8(1), true, uint8(64), words(0x7ff8000000000001, 0x7ff8000000000002, 0xfff8000000000003))
	f.Fuzz(func(t *testing.T, nQ, mQ, strideQ, rowsQ uint8, zero bool, density uint8, bits []byte) {
		n, m := 1+int(nQ)%160, 1+int(mQ)%48
		ss, vs := 1+int(strideQ)%4, n+int(strideQ>>2)%9
		h := fnv.New64a()
		h.Write(bits)
		h.Write([]byte{nQ, mQ, strideQ, rowsQ, density})
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		nw := len(bits) / 8
		fill := func(s []float64) []float64 {
			for i := range s {
				if nw > 0 && rng.Intn(255) < int(density) {
					s[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*rng.Intn(nw):]))
				} else {
					s[i] = rng.NormFloat64()
				}
			}
			return s
		}
		s := fill(make([]float64, (m-1)*ss+1))
		v := fill(make([]float64, (m-1)*vs+n))
		init := fill(make([]float64, n))

		want := slices.Clone(init)
		if zero {
			clear(want)
		}
		for i := 0; i < m; i++ {
			for j := range want {
				want[j] += s[i*ss] * v[i*vs+j]
			}
		}
		const guard = 16
		for _, k := range hostKernels64() {
			got := make([]float64, n+guard)
			copy(got, init)
			for i := n; i < len(got); i++ {
				got[i] = 12345
			}
			mulAccRows64(k, got[:n], s, ss, v, vs, m, zero)
			sameBits64(t, kernel64Names[k], want, got[:n])
			for i := n; i < len(got); i++ {
				if got[i] != 12345 {
					t.Fatalf("%s n=%d m=%d: wrote past dst[n-1] at %d", kernel64Names[k], n, m, i)
				}
			}
		}

		// The products, on a rows x m operand: a·b, a·cᵀ and acc += dᵀ·e.
		rows := 1 + int(rowsQ)%6
		mat := func(r, c int) *Matrix { return &Matrix{Rows: r, Cols: c, Data: fill(make([]float64, r*c))} }
		a, b, c := mat(rows, m), mat(m, n), mat(n, m)
		d, e, acc := mat(rows, m), mat(rows, n), mat(m, n)
		products := func(k kernel64) [3]*Matrix {
			defer func(prev kernel64) { active64 = prev }(active64)
			active64 = k
			return [3]*Matrix{
				MatMulInto(a, b, mat(rows, n)),
				MatMulTransBInto(a, c, mat(rows, n)),
				func() *Matrix { out := acc.Clone(); MatMulTransAAccum(d, e, out); return out }(),
			}
		}
		ref := products(kernel64Go)
		for _, k := range hostKernels64() {
			for i, p := range products(k) {
				sameBits64(t, kernel64Names[k]+[...]string{" MatMulInto", " MatMulTransBInto", " MatMulTransAAccum"}[i], ref[i].Data, p.Data)
			}
		}
	})
}

// sameBits64 fails t unless got equals want bit for bit wherever want is
// not NaN, and is NaN wherever want is (a NaN's payload is the only thing
// the operand order of a multiply or an add may change).
func sameBits64(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i, w := range want {
		if math.IsNaN(w) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("%s: output %d = %v, Go loop NaN", name, i, got[i])
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: output %d = %#016x, Go loop %#016x", name, i, math.Float64bits(got[i]), math.Float64bits(w))
		}
	}
}

// TestMatMul64KernelsAgree runs the three training products on every f64
// kernel this host has, over shapes the fuzz target does not reach: the
// goroutine-parallel row split, empty operands, and the paper's layer
// widths (33 features, 128/64/32 hidden units, one output).
func TestMatMul64KernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mat := func(r, c int) *Matrix {
		m := New(r, c)
		m.RandN(rng, 1)
		return m
	}
	for _, sh := range [][3]int{{256, 33, 128}, {256, 128, 64}, {256, 32, 1}, {200, 70, 130}, {3, 0, 5}, {0, 4, 9}, {5, 7, 0}} {
		rows, inner, cols := sh[0], sh[1], sh[2]
		a, b, c := mat(rows, inner), mat(inner, cols), mat(cols, inner)
		e, acc := mat(rows, cols), mat(inner, cols)
		run := func(name string) [3]*Matrix {
			defer UseKernel64(name)()
			out := acc.Clone()
			MatMulTransAAccum(a, e, out)
			return [3]*Matrix{MatMulInto(a, b, mat(rows, cols)), MatMulTransBInto(a, c, mat(rows, cols)), out}
		}
		ref := run("go")
		for _, name := range Kernels64() {
			for i, p := range run(name) {
				sameBits64(t, fmt.Sprintf("%s %v product %d", name, sh, i), ref[i].Data, p.Data)
			}
		}
	}
}
