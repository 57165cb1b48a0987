package intervaltree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func ivKey(iv Interval) [3]int64 { return [3]int64{iv.Lo, iv.Hi, int64(iv.ID)} }

func sortIvs(ivs []Interval) {
	sort.Slice(ivs, func(i, j int) bool {
		a, b := ivKey(ivs[i]), ivKey(ivs[j])
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func sameIvs(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	sortIvs(a)
	sortIvs(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomIntervals(rng *rand.Rand, n int, span int64) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := rng.Int63n(span)
		hi := lo + rng.Int63n(span/4+1)
		ivs[i] = Interval{Lo: lo, Hi: hi, ID: i}
	}
	return ivs
}

// stab collects every interval StabVisit reports at instant at.
func stab(t *Tree, at int64) []Interval {
	var out []Interval
	t.StabVisit(at, func(iv Interval) { out = append(out, iv) })
	return out
}

// naiveStab is the O(n)-per-query scan the tree replaces: the reference
// every stab result is checked against.
func naiveStab(ivs []Interval, at int64) []Interval {
	var out []Interval
	for _, iv := range ivs {
		if iv.Contains(at) {
			out = append(out, iv)
		}
	}
	return out
}

func TestContainsOverlapsHalfOpen(t *testing.T) {
	iv := Interval{Lo: 5, Hi: 10}
	if iv.Contains(4) || !iv.Contains(5) || !iv.Contains(9) || iv.Contains(10) {
		t.Fatal("Contains wrong at boundaries")
	}
}

func TestInsertAndStabSimple(t *testing.T) {
	tr := Build([]Interval{{0, 10, 1}, {5, 15, 2}, {20, 30, 3}})
	got := stab(tr, 7)
	want := []Interval{{0, 10, 1}, {5, 15, 2}}
	if !sameIvs(got, want) {
		t.Fatalf("stab(7) = %v", got)
	}
	if len(stab(tr, 16)) != 0 {
		t.Fatal("stab(16) should be empty")
	}
	if tr.Size() != 3 {
		t.Fatalf("Size = %d", tr.Size())
	}
}

func TestZeroLengthIntervalNeverStabs(t *testing.T) {
	tr := Build([]Interval{{7, 7, 1}})
	if len(stab(tr, 7)) != 0 {
		t.Fatal("zero-length interval must not contain its endpoint")
	}
}

// TestStabMatchesNaive is the core differential test: random trees against
// the linear scan at random stab points.
func TestStabMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ivs := randomIntervals(rng, 500, 10000)
	tr := Build(ivs)
	for q := 0; q < 200; q++ {
		at := rng.Int63n(12000) - 1000
		if !sameIvs(stab(tr, at), naiveStab(ivs, at)) {
			t.Fatalf("stab(%d) differs from naive", at)
		}
	}
}

// TestAVLBalanced: Build and Merge lay sorted input out perfectly balanced
// (the worst case for an unbalanced BST), so a stab descends O(log n).
func TestAVLBalanced(t *testing.T) {
	n := 4096
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = Interval{int64(i), int64(i + 5), i}
	}
	for name, tr := range map[string]*Tree{
		"build": Build(ivs), "chunked": BuildChunked(ivs, 1000, 100),
	} {
		if h := height(tr.root); h > 13 { // ceil(log2(4096+1))
			t.Fatalf("%s: height %d too large for %d nodes", name, h, n)
		}
		if tr.Size() != n {
			t.Fatalf("%s: Size = %d", name, tr.Size())
		}
	}
}

// TestBuildChunkedEquivalence: the paper's chunk+overlap+merge construction
// must be semantically identical to a single build.
func TestBuildChunkedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ivs := randomIntervals(rng, 2500, 20000)
	whole := Build(ivs)
	chunked := BuildChunked(ivs, 1000, 100)
	if chunked.Size() != whole.Size() {
		t.Fatalf("chunked size %d != whole %d", chunked.Size(), whole.Size())
	}
	for q := 0; q < 300; q++ {
		at := rng.Int63n(22000)
		if !sameIvs(stab(chunked, at), stab(whole, at)) {
			t.Fatalf("chunked differs at %d", at)
		}
	}
}

func TestBuildChunkedSmallInput(t *testing.T) {
	ivs := []Interval{{0, 5, 0}, {3, 9, 1}}
	tr := BuildChunked(ivs, 100, 10)
	if tr.Size() != 2 {
		t.Fatalf("Size = %d", tr.Size())
	}
}

func TestBuildChunkedBadParamsPanics(t *testing.T) {
	for _, c := range []struct{ chunk, overlap int }{{0, 0}, {10, 10}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for chunk=%d overlap=%d", c.chunk, c.overlap)
				}
			}()
			BuildChunked(make([]Interval, 20), c.chunk, c.overlap)
		}()
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a := Build([]Interval{{0, 10, 1}, {5, 20, 2}})
	b := Build([]Interval{{5, 20, 2}, {30, 40, 3}}) // {5,20,2} duplicated
	m := Merge(a, b)
	if m.Size() != 3 {
		t.Fatalf("merged size %d, want 3", m.Size())
	}
	if got := stab(m, 6); len(got) != 2 {
		t.Fatalf("stab(6) after merge = %v", got)
	}
}

func TestAllSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ivs := randomIntervals(rng, 100, 500)
	tr := Build(ivs)
	all := tr.All(nil)
	if len(all) != 100 {
		t.Fatalf("All returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Lo < all[i-1].Lo {
			t.Fatal("All not sorted by Lo")
		}
	}
}

// Property: for random interval sets, every stab result is exactly the set
// of intervals containing the point.
func TestStabProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		ivs := randomIntervals(rng, n, 200)
		tr := Build(ivs)
		at := rng.Int63n(250)
		return sameIvs(stab(tr, at), naiveStab(ivs, at))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeStab10k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ivs := randomIntervals(rng, 10000, 1<<20)
	tr := Build(ivs)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		tr.StabVisit(rng.Int63n(1<<20), func(Interval) { count++ })
	}
}

func BenchmarkNaiveStab10k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ivs := randomIntervals(rng, 10000, 1<<20)
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count += len(naiveStab(ivs, rng.Int63n(1<<20)))
	}
}

func BenchmarkBuildChunked100k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ivs := randomIntervals(rng, 100000, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildChunked(ivs, 100000, 10000)
	}
}
