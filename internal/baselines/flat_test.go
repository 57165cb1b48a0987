package baselines

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// TestFlatMatchesPointer pins the serving contract introduced by the SoA
// flattening: for randomized forests and boosters, the flat walk, the
// pointer walk, and the flat walk after a gob round-trip all produce
// bit-identical predictions.
func TestFlatMatchesPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(x []float64) float64 { return 2*x[0] - x[1]*x[2] + math.Abs(x[3]) }
	X, y := synthData(rng, 600, 8, f, 0.3)
	queries := make([][]float64, 200)
	for i := range queries {
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64() * 2
		}
		queries[i] = q
	}

	fo := NewForest(ForestConfig{
		Trees: 12,
		Tree:  TreeConfig{MaxDepth: 7, MinLeaf: 3},
		Seed:  5,
	})
	if err := fo.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g := NewGBDT(GBDTConfig{
		Rounds: 15,
		Tree:   TreeConfig{MaxDepth: 4},
		Seed:   6,
	})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}

	blob, err := fo.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fo2 := &Forest{}
	if err := fo2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	gblob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g2 := &GBDT{}
	if err := g2.UnmarshalBinary(gblob); err != nil {
		t.Fatal(err)
	}

	for qi, q := range queries {
		for ti, tr := range fo.trees {
			if tr.flat == nil {
				t.Fatalf("tree %d has no flat form after Fit", ti)
			}
			a, b := tr.Predict(q), tr.predictNode(q)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("tree %d query %d: flat %v vs pointer %v", ti, qi, a, b)
			}
		}
		if a, b := fo.Predict(q), fo2.Predict(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: forest diverged after gob round-trip: %v vs %v", qi, a, b)
		}
		if a, b := g.Predict(q), g2.Predict(q); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: gbdt diverged after gob round-trip: %v vs %v", qi, a, b)
		}
		// The eight-lane ensemble walk sums in tree order, like the chain
		// of pointer walks.
		var fsum float64
		for _, tr := range fo.trees {
			fsum += tr.predictNode(q)
		}
		if a, b := fo.Predict(q), fsum/float64(len(fo.trees)); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: forest ensemble walk %v vs pointer chain %v", qi, a, b)
		}
		gsum := g.base
		for _, tr := range g.trees {
			gsum += g.Cfg.LearnRate * tr.predictNode(q)
		}
		if a := g.Predict(q); math.Float64bits(a) != math.Float64bits(gsum) {
			t.Fatalf("query %d: gbdt ensemble walk %v vs pointer chain %v", qi, a, gsum)
		}
	}

	// The four-row lockstep walk GBDT.Fit updates residuals with must match
	// the per-row walk bit for bit (sizes straddle the lane width to cover
	// the scalar tail).
	for _, nrows := range []int{1, 3, 4, 7, 64, 200} {
		for ti, tr := range g.trees {
			out := make([]float64, nrows)
			tr.flat.addMany(queries[:nrows], g.Cfg.LearnRate, out)
			for i, q := range queries[:nrows] {
				if want := g.Cfg.LearnRate * tr.Predict(q); math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d tree %d row %d: lockstep %v vs scalar %v", nrows, ti, i, out[i], want)
				}
			}
		}
	}
}

// handTree builds a two-level tree splitting on features 0 then 1, so NaN
// placement can target consulted vs unconsulted features precisely.
func handTree() *Tree {
	root := &treeNode{feature: 0, threshold: 0,
		left: &treeNode{leaf: true, value: 1},
		right: &treeNode{feature: 1, threshold: 0,
			left:  &treeNode{leaf: true, value: 2},
			right: &treeNode{leaf: true, value: 3},
		},
	}
	return &Tree{root: root, dim: 3, flat: flattenTree(root)}
}

// TestTreeNaNPropagates: a NaN in a feature the walk consults must surface
// as a NaN prediction from both representations (the serving fallback keys
// off non-finite outputs); a NaN in a feature the walk never touches must
// not poison the result. Forest and GBDT inherit the behavior through
// their sums.
func TestTreeNaNPropagates(t *testing.T) {
	tr := handTree()
	nan := math.NaN()
	cases := []struct {
		x       []float64
		wantNaN bool
	}{
		{[]float64{-1, nan, 0}, false}, // feature 1 never consulted on the left branch
		{[]float64{-1, 0, nan}, false}, // feature 2 never consulted at all
		{[]float64{nan, 0, 0}, true},   // root split feature poisoned
		{[]float64{1, nan, 0}, true},   // second-level split feature poisoned
	}
	for i, c := range cases {
		got := tr.Predict(c.x)
		if math.IsNaN(got) != c.wantNaN {
			t.Errorf("case %d: flat Predict(%v) = %v, wantNaN=%v", i, c.x, got, c.wantNaN)
		}
		if ptr := tr.predictNode(c.x); math.Float64bits(got) != math.Float64bits(ptr) && !(math.IsNaN(got) && math.IsNaN(ptr)) {
			t.Errorf("case %d: flat %v vs pointer %v", i, got, ptr)
		}
	}

	// Trained ensembles: one poisoned feature must reach the output.
	rng := rand.New(rand.NewSource(77))
	X, y := synthData(rng, 400, 5, func(x []float64) float64 { return x[0] + x[1] }, 0.1)
	fo := NewForest(ForestConfig{Trees: 5, Tree: TreeConfig{MaxDepth: 5}, Seed: 9})
	if err := fo.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	g := NewGBDT(GBDTConfig{Rounds: 8, Tree: TreeConfig{MaxDepth: 3}, Seed: 10})
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	poisoned := []float64{nan, nan, nan, nan, nan}
	if v := fo.Predict(poisoned); !math.IsNaN(v) {
		t.Errorf("forest on all-NaN input returned %v, want NaN", v)
	}
	if v := g.Predict(poisoned); !math.IsNaN(v) {
		t.Errorf("gbdt on all-NaN input returned %v, want NaN", v)
	}
	clean := []float64{0.1, -0.2, 0.3, 0, 0}
	if v := fo.Predict(clean); math.IsNaN(v) {
		t.Error("forest on clean input returned NaN")
	}

	// Lockstep walk: a poisoned row must go NaN without contaminating its
	// lane-mates.
	batch := [][]float64{clean, poisoned, clean, clean, poisoned}
	for ti, tr := range g.trees {
		out := make([]float64, len(batch))
		tr.flat.addMany(batch, 1, out)
		for i, v := range out {
			wantNaN := i == 1 || i == 4
			if math.IsNaN(v) != wantNaN {
				t.Errorf("tree %d lockstep row %d: got %v, wantNaN=%v", ti, i, v, wantNaN)
			}
		}
	}
}

// TestExactSplitAdjacentFloats: with feature values one ulp apart, a
// midpoint threshold (a+b)/2 can round up to b itself and leak every b-row
// into the left partition. The learner's thresholds are data values, so the
// split must land on a and separate the two exactly.
func TestExactSplitAdjacentFloats(t *testing.T) {
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	if mid := (a + b) / 2; mid != b {
		t.Fatalf("test values no longer trigger upward midpoint rounding (mid=%v)", mid)
	}
	var X [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		X, y = append(X, []float64{a}), append(y, 0)
		X, y = append(X, []float64{b}), append(y, 1)
	}
	tr := NewTree(TreeConfig{MaxDepth: 2, MinLeaf: 2})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{a}); got != 0 {
		t.Errorf("Predict(a) = %v, want 0", got)
	}
	if got := tr.Predict([]float64{b}); got != 1 {
		t.Errorf("Predict(b) = %v, want 1", got)
	}
	if tr.root == nil || tr.root.leaf {
		t.Fatal("tree failed to split adjacent-float values at all")
	}
	if thr := tr.root.threshold; !(thr >= a && thr < b) {
		t.Errorf("threshold %v outside [a, b) for a=%v b=%v", thr, a, b)
	}
}

// TestHistThresholdsAreDataValues pins the property that makes a midpoint
// guard unnecessary: every trained threshold is an exact value from the
// split feature's column, never a computed midpoint.
func TestHistThresholdsAreDataValues(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	X, y := synthData(rng, 500, 6, func(x []float64) float64 { return x[0]*x[1] + x[2] }, 0.2)
	tr := NewTree(TreeConfig{MaxDepth: 6})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	colHas := func(f int, v float64) bool {
		for _, row := range X {
			if row[f] == v {
				return true
			}
		}
		return false
	}
	checked := 0
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n == nil || n.leaf {
			return
		}
		if !colHas(n.feature, n.threshold) {
			t.Fatalf("hist threshold %v on feature %d is not a data value", n.threshold, n.feature)
		}
		checked++
		walk(n.left)
		walk(n.right)
	}
	walk(tr.root)
	if checked == 0 {
		t.Fatal("hist tree has no internal nodes to check")
	}
}

// TestUnmarshalRejectsCorruptTrees: crafted node arrays with cycles,
// out-of-range children, half-split nodes, or out-of-dim features must
// come back as errors, not hangs, stack overflows, or panics at first
// Predict.
func TestUnmarshalRejectsCorruptTrees(t *testing.T) {
	encode := func(dto treeDTO) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]treeDTO{
		"self-cycle": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: 0, Threshold: 1, Left: 0, Right: 0},
		}},
		"mutual-cycle": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: 0, Threshold: 1, Left: 1, Right: 1},
			{Feature: 1, Threshold: 2, Left: 0, Right: 0},
		}},
		"child-out-of-range": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: 0, Threshold: 1, Left: 5, Right: 6},
		}},
		"root-out-of-range": {Dim: 2, Root: 3, Nodes: []flatNode{
			{Leaf: true, Value: 1},
		}},
		"half-split": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: 0, Threshold: 1, Left: 1, Right: -1},
			{Leaf: true, Value: 1, Left: -1, Right: -1},
		}},
		"negative-feature": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: -3, Threshold: 1, Left: 1, Right: 2},
			{Leaf: true, Value: 1, Left: -1, Right: -1},
			{Leaf: true, Value: 2, Left: -1, Right: -1},
		}},
		"feature-beyond-dim": {Dim: 2, Root: 0, Nodes: []flatNode{
			{Feature: 7, Threshold: 1, Left: 1, Right: 2},
			{Leaf: true, Value: 1, Left: -1, Right: -1},
			{Leaf: true, Value: 2, Left: -1, Right: -1},
		}},
	}
	for name, dto := range cases {
		tr := &Tree{}
		if err := tr.UnmarshalBinary(encode(dto)); err == nil {
			t.Errorf("%s: corrupt tree decoded without error", name)
		}
	}
	// Sanity: a well-formed hand-rolled DTO still decodes and serves.
	good := treeDTO{Dim: 2, Root: 0, Nodes: []flatNode{
		{Feature: 1, Threshold: 0.5, Left: 1, Right: 2},
		{Leaf: true, Value: -1, Left: -1, Right: -1},
		{Leaf: true, Value: 4, Left: -1, Right: -1},
	}}
	tr := &Tree{}
	if err := tr.UnmarshalBinary(encode(good)); err != nil {
		t.Fatalf("well-formed DTO rejected: %v", err)
	}
	if got := tr.Predict([]float64{0, 1}); got != 4 {
		t.Fatalf("decoded tree Predict = %v, want 4", got)
	}
}

// FuzzForestGob fuzzes the forest deserializer with raw bytes (seeded with
// a valid marshaled forest): it must never panic or hang, and anything it
// accepts must serve predictions without panicking — the property the
// flat-form rebuild and unflatten validation protect.
func FuzzForestGob(f *testing.F) {
	rng := rand.New(rand.NewSource(91))
	X, y := synthData(rng, 120, 4, func(x []float64) float64 { return x[0] - x[3] }, 0.2)
	fo := NewForest(ForestConfig{Trees: 3, Tree: TreeConfig{MaxDepth: 4}, Seed: 13})
	if err := fo.Fit(X, y); err != nil {
		f.Fatal(err)
	}
	blob, err := fo.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte{0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := &Forest{}
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		x := make([]float64, 64)
		for _, tr := range got.trees {
			if tr.dim > len(x) || tr.dim < 0 {
				return // decoded dim wider than our probe vector
			}
		}
		got.Predict(x)
	})
}

// BenchmarkForestPredict measures one 64-row predict pass over a trained
// forest, flat SoA walk vs the pointer-chasing walk.
func BenchmarkForestPredict(b *testing.B) {
	X, y := benchData(b)
	fo := NewForest(ForestConfig{Trees: 50, Tree: TreeConfig{MaxDepth: 8}, Seed: 3})
	if err := fo.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	rows := X[:64]
	out := make([]float64, len(rows))
	b.Run("mode=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r, row := range rows {
				out[r] = fo.Predict(row)
			}
		}
		sinkF64 = out[0]
	})
	b.Run("mode=pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s float64
			for _, r := range rows {
				for _, tr := range fo.trees {
					s += tr.predictNode(r)
				}
			}
			sinkF64 = s
		}
	})
}

// BenchmarkGBDTPredict is the boosting counterpart: 64 rows through a
// 100-round depth-4 booster, flat vs pointer.
func BenchmarkGBDTPredict(b *testing.B) {
	X, y := benchData(b)
	g := NewGBDT(GBDTConfig{Rounds: 100, Tree: TreeConfig{MaxDepth: 4}, Seed: 4})
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	rows := X[:64]
	out := make([]float64, len(rows))
	b.Run("mode=flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r, row := range rows {
				out[r] = g.Predict(row)
			}
		}
		sinkF64 = out[0]
	})
	b.Run("mode=pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s float64
			for _, r := range rows {
				sum := g.base
				for _, tr := range g.trees {
					sum += g.Cfg.LearnRate * tr.predictNode(r)
				}
				s += sum
			}
			sinkF64 = s
		}
	})
}

// sinkF64 keeps the benchmark loops' results observable.
var sinkF64 float64
