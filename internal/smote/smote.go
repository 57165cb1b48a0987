// Package smote implements the class-balancing the paper applies before
// training the binary classifier (§III): SMOTE oversampling of the minority
// class (Chawla et al. 2002) — synthetic samples interpolated between a
// minority point and one of its k nearest minority neighbors — combined with
// random undersampling of the majority class, yielding artificially balanced
// classes.
package smote

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
)

// Config controls balancing.
type Config struct {
	// K is the neighbor count for SMOTE interpolation; 0 means 5.
	K    int
	Seed int64
}

// maxOversample caps synthetic samples per original minority point.
const maxOversample = 10

func (c *Config) defaults() {
	if c.K <= 0 {
		c.K = 5
	}
}

// Balance returns a balanced dataset: the minority class is oversampled with
// SMOTE and the majority class randomly undersampled until the two are
// the same size. Labels are booleans; the minority class is detected
// automatically. Output order is shuffled deterministically from Seed.
func Balance(cfg Config, X [][]float64, y []bool) ([][]float64, []bool, error) {
	if len(X) != len(y) {
		return nil, nil, fmt.Errorf("smote: %d samples vs %d labels", len(X), len(y))
	}
	if len(X) == 0 {
		return nil, nil, fmt.Errorf("smote: empty dataset")
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var minIdx, majIdx []int
	for i, lbl := range y {
		if lbl {
			minIdx = append(minIdx, i)
		} else {
			majIdx = append(majIdx, i)
		}
	}
	minLabel := true
	if len(minIdx) > len(majIdx) {
		minIdx, majIdx = majIdx, minIdx
		minLabel = false
	}
	if len(minIdx) == 0 {
		return nil, nil, fmt.Errorf("smote: only one class present")
	}

	// Geometric-mean target size: oversample the minority and undersample
	// the majority toward each other rather than inflating the minority
	// all the way up (keeps synthetic fraction bounded).
	target := int(math.Sqrt(float64(len(minIdx)) * float64(len(majIdx))))
	maxMinority := len(minIdx) * (1 + maxOversample)
	if target > maxMinority {
		target = maxMinority
	}
	if target < len(minIdx) {
		target = len(minIdx)
	}
	majTarget := min(target, len(majIdx))

	var outX [][]float64
	var outY []bool

	// Minority originals.
	for _, i := range minIdx {
		outX = append(outX, X[i])
		outY = append(outY, minLabel)
	}
	// SMOTE synthetics.
	need := target - len(minIdx)
	if need > 0 {
		synth := synthesize(rng, X, minIdx, cfg.K, need)
		for _, s := range synth {
			outX = append(outX, s)
			outY = append(outY, minLabel)
		}
	}
	// Undersampled majority.
	perm := rng.Perm(len(majIdx))
	for _, p := range perm[:majTarget] {
		outX = append(outX, X[majIdx[p]])
		outY = append(outY, !minLabel)
	}

	// Shuffle the combined set.
	order := rng.Perm(len(outX))
	shufX := make([][]float64, len(outX))
	shufY := make([]bool, len(outY))
	for k, p := range order {
		shufX[k] = outX[p]
		shufY[k] = outY[p]
	}
	return shufX, shufY, nil
}

// synthesize creates `need` SMOTE samples by interpolating between minority
// points and their k nearest minority neighbors.
func synthesize(rng *rand.Rand, X [][]float64, minIdx []int, k, need int) [][]float64 {
	if len(minIdx) == 1 {
		// Degenerate: duplicate the single point with tiny jitter.
		out := make([][]float64, need)
		base := X[minIdx[0]]
		for s := range out {
			row := make([]float64, len(base))
			copy(row, base)
			out[s] = row
		}
		return out
	}
	if k >= len(minIdx) {
		k = len(minIdx) - 1
	}
	// Precompute k nearest minority neighbors for each minority point
	// (brute force O(n²), the dominant cost of Balance). Rows are
	// independent and the RNG is untouched here, so the search fans out
	// across workers without changing the seeded output: each row's
	// neighbor list depends only on the distances, and the interpolation
	// loop below consumes the RNG in the exact same order either way.
	neighbors := neighborLists(X, minIdx, k)
	out := make([][]float64, 0, need)
	for len(out) < need {
		a := rng.Intn(len(minIdx))
		b := neighbors[a][rng.Intn(k)]
		t := rng.Float64()
		pa, pb := X[minIdx[a]], X[minIdx[b]]
		row := make([]float64, len(pa))
		for j := range row {
			row[j] = pa[j] + t*(pb[j]-pa[j])
		}
		out = append(out, row)
	}
	return out
}

// neighborParallelRows is the minority size below which the quadratic
// neighbor search stays serial (goroutine fan-out costs more than it saves).
const neighborParallelRows = 256

// neighborLists computes each minority point's k nearest minority neighbors,
// row-parallel for large minority sets. Deterministic regardless of worker
// count: every row's result is a pure function of the distances.
func neighborLists(X [][]float64, minIdx []int, k int) [][]int {
	neighbors := make([][]int, len(minIdx))
	type dn struct {
		d   float64
		idx int
	}
	row := func(a int, ds []dn) {
		ds = ds[:0]
		for b := range minIdx {
			if a == b {
				continue
			}
			ds = append(ds, dn{dist2(X[minIdx[a]], X[minIdx[b]]), b})
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].d < ds[j].d })
		nb := make([]int, k)
		for i := 0; i < k; i++ {
			nb[i] = ds[i].idx
		}
		neighbors[a] = nb
	}
	workers := runtime.GOMAXPROCS(0)
	if len(minIdx) < neighborParallelRows || workers < 2 {
		ds := make([]dn, 0, len(minIdx)-1)
		for a := range minIdx {
			row(a, ds)
		}
		return neighbors
	}
	var wg sync.WaitGroup
	chunk := (len(minIdx) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(minIdx) {
			hi = len(minIdx)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ds := make([]dn, 0, len(minIdx)-1)
			for a := lo; a < hi; a++ {
				row(a, ds)
			}
		}(lo, hi)
	}
	wg.Wait()
	return neighbors
}

func dist2(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}
