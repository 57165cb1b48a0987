//go:build !amd64

package tensor

// mulAccRows64AVX512 is never called off amd64: hostKernels64 lists only
// kernel64Go there.
func mulAccRows64AVX512(dst, s, v *float64, n, m, ss, vs int64, zero bool) {
	panic("tensor: AVX-512 kernel called on non-amd64 build")
}
