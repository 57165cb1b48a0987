package baselines

import (
	"math/rand"
	"testing"
)

func TestTreeSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	X, y := synthData(rng, 500, 4, linearFn, 0.2)
	tr := NewTree(TreeConfig{MaxDepth: 8, MinLeaf: 3})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 100; q++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		if tr.Predict(x) != back.Predict(x) {
			t.Fatal("round-tripped tree predicts differently")
		}
	}
	if back.NumLeaves() != tr.NumLeaves() || back.Depth() != tr.Depth() {
		t.Fatal("tree structure changed")
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := synthData(rng, 400, 3, linearFn, 0.3)
	fo := NewForest(ForestConfig{Trees: 15, Seed: 2})
	if err := fo.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b, err := fo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Forest
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		if fo.Predict(x) != back.Predict(x) {
			t.Fatal("round-tripped forest predicts differently")
		}
	}
}

func TestTreeUnmarshalGarbage(t *testing.T) {
	var tr Tree
	if err := tr.UnmarshalBinary([]byte("nonsense")); err == nil {
		t.Fatal("garbage accepted")
	}
	var fo Forest
	if err := fo.UnmarshalBinary([]byte{0x01, 0x02}); err == nil {
		t.Fatal("garbage forest accepted")
	}
}

func TestEmptyTreeSerialization(t *testing.T) {
	tr := NewTree(TreeConfig{})
	b, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if back.Predict([]float64{1}) != 0 {
		t.Fatal("empty tree should predict 0")
	}
}

func TestGBDTSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := synthData(rng, 300, 4, linearFn, 0.05)
	g := NewGBDT(GBDTConfig{Rounds: 20, Tree: TreeConfig{MaxDepth: 3}, Seed: 3})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back GBDT
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got, want := back.Predict(X[i]), g.Predict(X[i]); got != want {
			t.Fatalf("row %d: reloaded %v, original %v", i, got, want)
		}
	}
	if err := back.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
