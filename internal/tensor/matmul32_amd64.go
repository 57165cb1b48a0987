//go:build amd64

package tensor

// haveSSE reports whether the SSE kernels are available. SSE2 is part of
// the amd64 baseline, so a plain `go build` on any amd64 host has them.
const haveSSE = true

// haveAVX512 reports whether this host runs the AVX-512 kernels (the
// 16-lane float32 one and the f64 row kernel): the CPU has AVX-512F and
// the OS saves the opmask and full ZMM state.
var haveAVX512 = detectAVX512()

func detectAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1, 2, 5, 6, 7: XMM, YMM, opmask, ZMM0-15 upper, ZMM16-31.
	if xgetbv()&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 // AVX512F
}

func hostKernels32() []kernel32 {
	if haveAVX512 {
		return []kernel32{kernel32AVX512, kernel32SSE, kernel32Go}
	}
	return []kernel32{kernel32SSE, kernel32Go}
}

func runKernel32(k kernel32, a []float32, w *Packed32, bias, dst []float32, lim float32) {
	switch k {
	case kernel32AVX512:
		matmulTransB32AVX512(&a[0], &w.data[0], &bias[0], &dst[0], int64(w.outs), int64(w.inPad), lim)
	case kernel32SSE:
		matmulTransB32SSE(&a[0], &w.data[0], &bias[0], &dst[0], int64(w.outs), int64(w.inPad), lim)
	default:
		matmulTransB32Go(a, w, bias, dst, lim)
	}
}

// matmulTransB32SSE computes outs dot products of one activation row
// against packed weights (outs and inPad positive multiples of 4), adds
// bias, applies max(lim, v) with v in the source position (lim = 0 fuses
// ReLU, lim = −Inf is the identity; NaN accumulators propagate), and
// stores float32 results to dst.
//
//go:noescape
func matmulTransB32SSE(a, w, bias, dst *float32, outs, inPad int64, lim float32)

// matmulTransB32AVX512 is matmulTransB32SSE sixteen lanes wide: the same
// contract and, lane by lane, the same IEEE operations.
//
//go:noescape
func matmulTransB32AVX512(a, w, bias, dst *float32, outs, inPad int64, lim float32)

// eluSSE applies ELU (alpha = 1) in place over n float32 lanes (n a
// positive multiple of 4), branchlessly, with the Cephes expf polynomial.
// Bit-identical to the scalar replica elu32.
//
//go:noescape
func eluSSE(p *float32, n int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
