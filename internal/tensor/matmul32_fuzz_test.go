package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// FuzzMatMul32 pins the kernel contract on arbitrary bit patterns: every
// kernel this host runs — called directly, not only the dispatched one —
// equals matmulTransB32Go bit for bit, NaN payloads included, for padded
// shapes of 4…160 outputs and inputs and both clamps, and writes nothing
// past its outputs. bits supplies float32 words (NaN payloads, ±0, ±Inf,
// subnormals) that replace a share density/255 of the otherwise normal
// activations, weights and biases.
func FuzzMatMul32(f *testing.F) {
	words := func(ws ...uint32) []byte {
		b := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		return b
	}
	specials := words(
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff812345, // quiet and signaling NaNs
		0x00000000, 0x80000000, 0x7f800000, 0xff800000, // ±0, ±Inf
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x7f7fffff, 0xff7fffff, 0x3f800000, // ±MaxFloat32, 1
	)
	f.Add(uint8(15), uint8(8), false, uint8(0), []byte(nil))
	f.Add(uint8(3), uint8(31), true, uint8(16), specials)
	f.Add(uint8(2), uint8(0), false, uint8(128), specials)
	f.Add(uint8(39), uint8(39), true, uint8(255), specials)
	f.Add(uint8(10), uint8(1), false, uint8(64), words(0x7fc00001, 0x7fc00002, 0xffc00003))
	f.Fuzz(func(t *testing.T, outsQ, inQ uint8, relu bool, density uint8, bits []byte) {
		outs, inPad := 4+4*int(outsQ%40), 4+4*int(inQ%40)
		h := fnv.New64a()
		h.Write(bits)
		h.Write([]byte{outsQ, inQ, density})
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		nw := len(bits) / 4
		val := func() float32 {
			if nw > 0 && rng.Intn(255) < int(density) {
				return math.Float32frombits(binary.LittleEndian.Uint32(bits[4*rng.Intn(nw):]))
			}
			return float32(rng.NormFloat64())
		}
		a := make([]float32, inPad)
		m := &Matrix32{Rows: outs, Cols: inPad, Stride: inPad, Data: make([]float32, outs*inPad)}
		bias := make([]float32, outs)
		for _, s := range [][]float32{a, m.Data, bias} {
			for i := range s {
				s[i] = val()
			}
		}
		w := Pack32(m)
		lim := reluLimit(relu)
		want := make([]float32, outs)
		matmulTransB32Go(a, &w, bias, want, lim)
		const guard = 16
		for _, k := range hostKernels32() {
			got := make([]float32, outs+guard)
			for i := outs; i < len(got); i++ {
				got[i] = 12345
			}
			runKernel32(k, a, &w, bias, got[:outs], lim)
			for i, wv := range want {
				if math.Float32bits(got[i]) != math.Float32bits(wv) {
					t.Errorf("%s outs=%d inPad=%d relu=%v: output %d = %#08x, go %#08x",
						kernel32Names[k], outs, inPad, relu, i, math.Float32bits(got[i]), math.Float32bits(wv))
					break
				}
			}
			for i := outs; i < len(got); i++ {
				if got[i] != 12345 {
					t.Fatalf("%s outs=%d inPad=%d: wrote past the outputs at %d", kernel32Names[k], outs, inPad, i)
				}
			}
		}
	})
}
