package tensor

import "math"

// Matrix32 is a row-major float32 matrix with an explicit row stride so
// columns can be padded out to the 4-lane alignment the SSE inference
// kernels require. Rows*Stride elements of Data are live; lanes between
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

// MatMulTransBInto32 computes dst = a · bᵀ + bias with an optional fused
// ReLU, entirely in float32. b holds one weight row per output unit
// (Out x In, transposed layout), so each output is a contiguous dot
// product — the register-blocked SSE kernel streams one a-row chunk
// against four weight rows at a time, which is what keeps the per-predict
// working set at half the float64 path's cache footprint.
//
// Shape contract: a is Rows x K with a.Stride == b.Stride (K padded to the
// lane width), b is Out x K, bias has at least b.Rows entries, dst is
// Rows x b.Rows with dst.Stride >= b.Rows. Accumulation order is fixed —
// four stride-4 partial sums combined as (s0+s2)+(s1+s3) — and is
// bit-identical between the assembly and pure-Go paths.
func MatMulTransBInto32(dst, a, b *Matrix32, bias []float32, relu bool) {
	if a.Stride != b.Stride {
		panic("tensor: MatMulTransBInto32 stride mismatch")
	}
	if dst.Stride < b.Rows || len(bias) < b.Rows {
		panic("tensor: MatMulTransBInto32 output shape mismatch")
	}
	outs, inPad := b.Rows, b.Stride
	useAsm := haveSSE && outs%4 == 0 && inPad%4 == 0 && outs > 0 && inPad > 0
	lim := reluLimit(relu)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Stride:]
		drow := dst.Data[r*dst.Stride:]
		if useAsm {
			matmulTransB32SSE(&arow[0], &b.Data[0], &bias[0], &drow[0], int64(outs), int64(inPad), lim)
		} else {
			matmulTransB32Go(arow[:inPad], b.Data, bias, drow, outs, inPad, lim)
		}
	}
}

// MatMulTransBInto32F64Acc is the head-layer variant: same shape contract
// and fused epilogue as MatMulTransBInto32, but every dot product
// accumulates in float64 before rounding once to float32. The output head
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

// matmulTransB32Go is the portable kernel. It mirrors the SSE routine
// exactly: lane l of the vector accumulator is the stride-4 partial sum
// s_l, the horizontal reduction is (s0+s2)+(s1+s3), and the clamp is
// written as lim > v so NaN and −0 behave like MAXSS with v in the source
// position. Any change here must keep TestMatMul32AsmMatchesGo green.
func matmulTransB32Go(a, wt, bias, dst []float32, outs, inPad int, lim float32) {
	for o := 0; o < outs; o++ {
		row := wt[o*inPad : o*inPad+inPad]
		var s0, s1, s2, s3 float32
		k := 0
		for ; k+4 <= inPad; k += 4 {
			s0 += a[k] * row[k]
			s1 += a[k+1] * row[k+1]
			s2 += a[k+2] * row[k+2]
			s3 += a[k+3] * row[k+3]
		}
		for ; k < inPad; k++ {
			s0 += a[k] * row[k]
		}
		v := (s0 + s2) + (s1 + s3)
		v += bias[o]
		if lim > v {
			v = lim
		}
		dst[o] = v
	}
}
