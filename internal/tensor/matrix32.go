package tensor

import "math"

// Matrix32 is a row-major float32 matrix with an explicit row stride so
// columns can be padded out to the 4-lane alignment the inference kernels
// require. Rows*Stride elements of Data are live; lanes between
// Cols and Stride are padding and must be kept zero by the owner (zero
// padding is exact under the kernels: 0·0 contributes +0 to every lane).
type Matrix32 struct {
	Rows, Cols int
	Stride     int
	Data       []float32
}

// PadTo4 rounds n up to the next multiple of four, the kernel lane width.
func PadTo4(n int) int { return (n + 3) &^ 3 }

// Row returns the i-th row including its padding lanes.
func (m *Matrix32) Row(i int) []float32 {
	return m.Data[i*m.Stride : i*m.Stride+m.Stride]
}

// reluLimit returns the clamp operand used by the fused bias+ReLU epilogue:
// the kernels compute max(lim, v) with v as the max's source operand, so a
// NaN accumulator always propagates (matching the f64 path's NaN masking)
// and −0 survives the identity clamp. lim = 0 implements ReLU; lim = −Inf
// is the identity.
func reluLimit(relu bool) float32 {
	if relu {
		return 0
	}
	return float32(math.Inf(-1))
}

// Packed32 holds a hidden dense layer's float32 weights in the one layout
// every kernel reads: outputs in blocks of four, and per block one
// 16-float chunk per four inputs — chunk c of block b is inputs 4c…4c+3 of
// output 4b, then of 4b+1, 4b+2 and 4b+3. A 4-lane kernel reads a chunk
// as four consecutive 16-byte loads, a 16-lane kernel as one 64-byte load.
// Only Pack32 builds one, so no caller can hand a kernel another layout.
type Packed32 struct {
	outs, inPad int // both multiples of 4
	data        []float32
}

// Pack32 packs m (one row per output unit, m.Stride a multiple of 4) into
// the kernel layout, padding the outputs to a multiple of four with zero
// rows.
func Pack32(m *Matrix32) Packed32 {
	if m.Stride%4 != 0 {
		panic("tensor: Pack32 stride is not a multiple of 4")
	}
	p := Packed32{outs: PadTo4(m.Rows), inPad: m.Stride}
	p.data = make([]float32, p.outs*p.inPad)
	for o := 0; o < m.Rows; o++ {
		row := m.Row(o)
		for c := 0; c < p.inPad/4; c++ {
			copy(p.data[p.at(o, c):p.at(o, c)+4], row[4*c:])
		}
	}
	return p
}

// at is the offset of output o's k-chunk c.
func (p *Packed32) at(o, c int) int { return (o>>2)*p.inPad*4 + c*16 + (o&3)*4 }

// kernel32 names one implementation of the hidden-layer kernel.
type kernel32 uint8

const (
	kernel32Go     kernel32 = iota // portable; the replica every other kernel equals bit for bit
	kernel32SSE                    // 4 lanes; amd64 without AVX-512F
	kernel32AVX512                 // 16 lanes
)

// active32 is the kernel MatMulTransBInto32 runs: the widest one the host
// supports (hostKernels32 lists them widest first), chosen once at
// package init.
var active32 = hostKernels32()[0]

// MatMulTransBInto32 computes dst = a · wᵀ + bias with an optional fused
// ReLU, entirely in float32: output o of row r is the dot product of that
// row with output o's weights. The kernel keeps four stride-4 partial sums
// per output (s_l sums lanes k ≡ l mod 4) and combines them as
// (s0+s2)+(s1+s3); every kernel does exactly these IEEE operations, so
// the 16-lane, 4-lane and portable kernels agree bit for bit.
//
// Shape contract: a is Rows x K with a.Stride equal to the packed input
// width (K padded to the lane width), bias has at least one entry per
// packed output, and dst.Stride is at least the packed output count.
func MatMulTransBInto32(dst, a *Matrix32, w *Packed32, bias []float32, relu bool) {
	if a.Stride != w.inPad {
		panic("tensor: MatMulTransBInto32 stride mismatch")
	}
	if dst.Stride < w.outs || len(bias) < w.outs {
		panic("tensor: MatMulTransBInto32 output shape mismatch")
	}
	k := active32
	if w.outs == 0 || w.inPad == 0 {
		k = kernel32Go // the assembly loops need one block and one chunk
	}
	lim := reluLimit(relu)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Stride : r*a.Stride+w.inPad]
		drow := dst.Data[r*dst.Stride : r*dst.Stride+w.outs]
		runKernel32(k, arow, w, bias[:w.outs], drow, lim)
	}
}

// MatMulTransBInto32F64Acc is the head-layer variant: the fused epilogue
// of MatMulTransBInto32, but b keeps one weight row per output unit
// (b.Rows x K, b.Stride == a.Stride) and every dot product accumulates in
// float64 before rounding once to float32. The output head
// is where accumulated rounding error lands directly on the served
// prediction (and on a sigmoid logit), so that is where the precision is
// spent; head layers are a few units wide, so the scalar path costs
// nothing measurable.
func MatMulTransBInto32F64Acc(dst, a, b *Matrix32, bias []float32, relu bool) {
	if a.Stride != b.Stride {
		panic("tensor: MatMulTransBInto32F64Acc stride mismatch")
	}
	if dst.Stride < b.Rows || len(bias) < b.Rows {
		panic("tensor: MatMulTransBInto32F64Acc output shape mismatch")
	}
	outs, inPad := b.Rows, b.Stride
	lim := reluLimit(relu)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Stride : r*a.Stride+inPad]
		drow := dst.Data[r*dst.Stride:]
		for o := 0; o < outs; o++ {
			row := b.Data[o*inPad : o*inPad+inPad]
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= inPad; k += 4 {
				s0 += float64(arow[k]) * float64(row[k])
				s1 += float64(arow[k+1]) * float64(row[k+1])
				s2 += float64(arow[k+2]) * float64(row[k+2])
				s3 += float64(arow[k+3]) * float64(row[k+3])
			}
			for ; k < inPad; k++ {
				s0 += float64(arow[k]) * float64(row[k])
			}
			v := float32((s0+s2)+(s1+s3)) + bias[o]
			if lim > v {
				v = lim
			}
			drow[o] = v
		}
	}
}

// matmulTransB32Go is the portable kernel. It mirrors the assembly
// kernels exactly: s_l is lane l of the vector accumulator, each product
// is rounded before it is added (no FMA), the reduction is (s0+s2)+(s1+s3),
// every op keeps the NaN payload x86 would (mul32, add32), and the clamp
// is written as lim > v so NaN and −0 behave like MAXSS and VMAXPS with v
// in the second source. Any change here must keep TestMatMul32AsmMatchesGo
// and FuzzMatMul32 green.
func matmulTransB32Go(a []float32, w *Packed32, bias, dst []float32, lim float32) {
	for o := 0; o < w.outs; o++ {
		var s0, s1, s2, s3 float32
		for c := 0; c < w.inPad/4; c++ {
			wk := w.data[w.at(o, c):][:4]
			ak := a[4*c:][:4]
			s0 = add32(s0, mul32(wk[0], ak[0]))
			s1 = add32(s1, mul32(wk[1], ak[1]))
			s2 = add32(s2, mul32(wk[2], ak[2]))
			s3 = add32(s3, mul32(wk[3], ak[3]))
		}
		v := add32(add32(s0, s2), add32(s1, s3))
		v = add32(v, bias[o])
		if lim > v {
			v = lim
		}
		dst[o] = v
	}
}

// mul32 and add32 are x·y and x+y with the NaN an x86 SSE or AVX op with
// first source x returns: Go leaves a NaN result's payload to the hardware
// and lets the compiler swap the operands of a commutative op, so the
// portable kernel pins it to what the assembly kernels produce.
func mul32(x, y float32) float32 {
	if r := float32(x * y); r == r {
		return r
	}
	return nan32(x, y)
}

func add32(x, y float32) float32 {
	if r := float32(x + y); r == r {
		return r
	}
	return nan32(x, y)
}

// nan32 is the NaN result of an x86 op on x and y: x quieted if it is a
// NaN, else y quieted if it is, else the default NaN (an invalid op such
// as ∞−∞ or 0·∞).
func nan32(x, y float32) float32 {
	const quiet = 1 << 22
	switch {
	case x != x:
		return math.Float32frombits(math.Float32bits(x) | quiet)
	case y != y:
		return math.Float32frombits(math.Float32bits(y) | quiet)
	}
	return math.Float32frombits(0xffc00000)
}
