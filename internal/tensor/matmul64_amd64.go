//go:build amd64

package tensor

// mulAccRows64AVX512 is mulAccRows64's contract for n a positive multiple
// of 8 and m positive, eight lanes per ZMM register.
//
//go:noescape
func mulAccRows64AVX512(dst, s, v *float64, n, m, ss, vs int64, zero bool)
