package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// paper-shaped test nets: the classifier and regressor stacks from the
// default TROUT architecture, plus a kitchen-sink net covering every
// compilable layer kind.
func f32TestNets(rng *rand.Rand) map[string]*Network {
	return map[string]*Network{
		"classifier": NewNetwork(rng, MLPSpecs(33, []int{64, 32}, 1, ReLU, Sigmoid, 0.2)...),
		"regressor":  NewNetwork(rng, MLPSpecs(33, []int{128, 64, 32}, 1, ELU, Identity, 0.2)...),
		"kitchen": NewNetwork(rng,
			DenseSpec(10, 16), BatchNormSpec(16), ActivationSpec(Tanh),
			DenseSpec(16, 8), ActivationSpec(LeakyReLU),
			DenseSpec(8, 4), ActivationSpec(Sigmoid)),
	}
}

// ord32 maps float32 bits onto a monotone integer scale so that adjacent
// representable floats differ by exactly one.
func ord32(f float32) int64 {
	u := math.Float32bits(f)
	if u&0x80000000 != 0 {
		return -int64(u & 0x7fffffff)
	}
	return int64(u)
}

// ulps32 returns the distance in float32 representation steps between the
// float32 result and the float64 reference rounded to float32.
func ulps32(ref, got float64) int {
	d := ord32(float32(ref)) - ord32(float32(got))
	if d < 0 {
		d = -d
	}
	return int(d)
}

// TestFloat32MatchesFloat64 pins the f32-vs-f64 tolerance on randomized
// weights and inputs across the paper architectures: every output unit
// must land within 256 float32 ulps of the f64 reference, or within 1e-5
// absolute where the output crosses zero and ulp spacing collapses. The
// observed worst case is far tighter (single-digit ulps on the sigmoid
// head, ~2e-7 absolute on the regression head; see DESIGN.md §12).
func TestFloat32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, n := range f32TestNets(rng) {
		inW := n.Layers[0].(*Dense).In
		in := tensor.New(8, inW)
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64() * 3
		}
		ref := n.Predict(in)
		if !n.EnableFloat32() {
			t.Fatalf("%s: EnableFloat32 failed", name)
		}
		got := n.Predict(in)
		maxUlp, maxAbs := 0, 0.0
		for i := range ref.Data {
			u := ulps32(ref.Data[i], got.Data[i])
			abs := math.Abs(ref.Data[i] - got.Data[i])
			if u > maxUlp {
				maxUlp = u
			}
			if abs > maxAbs {
				maxAbs = abs
			}
			if u > 256 && abs > 1e-5 {
				t.Fatalf("%s: output %d: f64=%v f32=%v (%d ulps, %g abs)", name, i, ref.Data[i], got.Data[i], u, abs)
			}
		}
		t.Logf("%s: max deviation %d float32 ulps, %.3g absolute", name, maxUlp, maxAbs)
		n.DisableFloat32()
		back := n.Predict(in)
		for i := range ref.Data {
			if back.Data[i] != ref.Data[i] {
				t.Fatalf("%s: DisableFloat32 did not restore the f64 path", name)
			}
		}
	}
}

// TestFloat32BatchMatchesSingle pins the kernel accumulation-order
// contract: a row predicted in a batch and the same row through Predict1
// produce bit-identical float32-path results.
func TestFloat32BatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork(rng, MLPSpecs(33, []int{64, 32}, 1, ReLU, Sigmoid, 0)...)
	if !n.EnableFloat32() {
		t.Fatal("EnableFloat32 failed")
	}
	in := tensor.New(13, 33) // odd row count
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	batch := n.Predict(in)
	for r := 0; r < in.Rows; r++ {
		single := n.Predict1(in.Row(r))
		if math.Float64bits(single) != math.Float64bits(batch.Data[r]) {
			t.Fatalf("row %d: single %v batch %v", r, single, batch.Data[r])
		}
	}
}

// TestFloat32NaNPropagates: a poisoned feature must surface as NaN from
// the float32 path (the serving fallback keys off non-finite outputs).
func TestFloat32NaNPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for name, n := range f32TestNets(rng) {
		if !n.EnableFloat32() {
			t.Fatalf("%s: EnableFloat32 failed", name)
		}
		inW := n.Layers[0].(*Dense).In
		x := make([]float64, inW)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if v := n.Predict1(x); math.IsNaN(v) {
			t.Fatalf("%s: clean input returned NaN", name)
		}
		x[inW/2] = math.NaN()
		if v := n.Predict1(x); !math.IsNaN(v) {
			t.Fatalf("%s: poisoned input returned %v, want NaN", name, v)
		}
	}
}

// TestFloat32TrainingInvalidates: a training pass must drop the compiled
// snapshot so stale f32 weights can never serve.
func TestFloat32TrainingInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork(rng, MLPSpecs(4, []int{8}, 1, ReLU, Sigmoid, 0)...)
	if !n.EnableFloat32() {
		t.Fatal("EnableFloat32 failed")
	}
	tws := n.NewTrainWorkspace()
	in := tensor.New(2, 4)
	n.ForwardTrain(tws, in)
	if n.f32.Load() != nil {
		t.Fatal("ForwardTrain left the f32 program active")
	}
}

// TestFloat32PredictNoAllocs guards the steady-state allocation profile of
// the float32 path: Predict1 must be allocation-free once the workspace
// pool is warm.
func TestFloat32PredictNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(rng, MLPSpecs(33, []int{64, 32}, 1, ReLU, Sigmoid, 0)...)
	if !n.EnableFloat32() {
		t.Fatal("EnableFloat32 failed")
	}
	x := make([]float64, 33)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	n.Predict1(x) // warm the pool
	allocs := testing.AllocsPerRun(200, func() { n.Predict1(x) })
	if allocs != 0 {
		t.Fatalf("Predict1 (f32): %v allocs/op, want 0", allocs)
	}
}

// TestFloat32GobRoundTrip: loading a saved network yields a plain f64 net;
// enabling f32 on the loaded copy matches the original's f32 predictions
// bit for bit (same weights, same compiled program).
func TestFloat32GobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewNetwork(rng, MLPSpecs(33, []int{64, 32}, 1, ReLU, Sigmoid, 0)...)
	blob, err := n.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.f32.Load() != nil {
		t.Fatal("loaded network unexpectedly has an f32 program")
	}
	n.EnableFloat32()
	m.EnableFloat32()
	x := make([]float64, 33)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if a, b := n.Predict1(x), m.Predict1(x); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("f32 predictions diverge after gob round-trip: %v vs %v", a, b)
	}
}
