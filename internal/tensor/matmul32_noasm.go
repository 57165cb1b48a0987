//go:build !amd64

package tensor

// haveSSE is false off amd64; the portable kernels are bit-identical, so
// nothing above this layer can observe the difference.
const haveSSE = false

// haveAVX512 is false off amd64: the f64 training products run their Go
// loops.
const haveAVX512 = false

func hostKernels32() []kernel32 { return []kernel32{kernel32Go} }

func runKernel32(k kernel32, a []float32, w *Packed32, bias, dst []float32, lim float32) {
	matmulTransB32Go(a, w, bias, dst, lim)
}

// eluSSE is never called when haveSSE is false; EluInPlace32 runs the
// scalar replica instead.
func eluSSE(p *float32, n int64) {
	panic("tensor: SSE kernel called on non-amd64 build")
}
