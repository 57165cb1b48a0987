package scaling

import (
	"math/rand"
	"testing"
)

// TestTransformIntoMatchesTransform pins the wrapper: Transform is
// transformInto into a fresh slice, for every scaler, fitted and unfitted.
func TestTransformIntoMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = rng.Float64() * 100
		}
	}
	probe := []float64{0, 1.5, 99, 0.001, 42, 7}
	dst := make([]float64, len(probe))
	for _, kind := range Kinds() {
		for _, fitted := range []bool{false, true} {
			s, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if fitted {
				s.Fit(rows)
			}
			want := s.Transform(probe)
			TransformInto(s, dst, probe)
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("%s fitted=%v col %d: into %v != transform %v", kind, fitted, j, dst[j], want[j])
				}
			}
		}
	}
}

// TestTransformIntoNoAllocs: the whole point of the Into path.
func TestTransformIntoNoAllocs(t *testing.T) {
	s, _ := New(Log1p)
	row := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	if allocs := testing.AllocsPerRun(100, func() { TransformInto(s, dst, row) }); allocs > 0 {
		t.Fatalf("TransformInto allocates %.1f per run, want 0", allocs)
	}
}
