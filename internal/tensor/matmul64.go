package tensor

// kernel64 names one implementation of mulAccRows64, the row kernel the
// training products MatMulInto, MatMulTransBInto and MatMulTransAAccum run
// on when the host has one wider than Go.
type kernel64 uint8

const (
	kernel64Go     kernel64 = iota // the loops in matrix.go; the oracle every other kernel equals
	kernel64AVX512                 // 32 lanes in registers, then 8
)

// active64 is the kernel the training products run: the widest one the
// host supports (hostKernels64 lists them widest first), chosen once at
// package init. Under kernel64Go they run their own loops.
var active64 = hostKernels64()[0]

func hostKernels64() []kernel64 {
	if haveAVX512 {
		return []kernel64{kernel64AVX512, kernel64Go}
	}
	return []kernel64{kernel64Go}
}

// mulAccRows64 computes, with kernel k,
//
//	dst[j] = (zero ? +0 : dst[j]) + Σ_{t<m} s[t·ss] · v[t·vs+j]
//
// for every j < len(dst), t ascending, each term one multiply and one add:
// per element exactly the operations of the loops in matrix.go, in their
// order, so every kernel gives their bits. kernel64AVX512 covers the
// outputs below the last multiple of 8 and this loop the rest. dst must
// not alias s or v.
func mulAccRows64(k kernel64, dst, s []float64, ss int, v []float64, vs, m int, zero bool) {
	n := len(dst)
	if m == 0 || n == 0 {
		if zero {
			clear(dst)
		}
		return
	}
	_, _ = s[(m-1)*ss], v[(m-1)*vs+n-1] // the last elements any kernel reads
	n8 := 0
	if k == kernel64AVX512 {
		if n8 = n &^ 7; n8 > 0 {
			mulAccRows64AVX512(&dst[0], &s[0], &v[0], int64(n8), int64(m), int64(ss), int64(vs), zero)
		}
	}
	if n8 == n {
		return
	}
	tail := dst[n8:]
	if zero {
		clear(tail)
	}
	for t := 0; t < m; t++ {
		sv := s[t*ss]
		for j, x := range v[t*vs+n8 : t*vs+n] {
			tail[j] += sv * x
		}
	}
}
