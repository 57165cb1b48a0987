package baselines

import (
	"math/rand"
	"sort"
	"sync"
)

// maxBins is the histogram resolution cap: every feature quantizes to at
// most 256 bins so one bin index fits a uint8 and a node's per-feature
// histogram stays L1-resident.
const maxBins = 256

// binned is a pre-quantized feature matrix: each feature column mapped once
// to uint8 bin indices at quantile cut points, stored column-major so a
// node's histogram accumulation streams one contiguous column per feature.
// Building it costs one sort per feature; every tree (forest) or round
// (GBDT) after that trains on bins only.
type binned struct {
	rows, cols int
	bins       []uint8 // column-major: bins[f*rows+i]
	// edges[f] holds ascending upper bin edges: value v falls in the
	// smallest bin b with v <= edges[f][b], or in bin len(edges[f]) past
	// the last edge. A split "left = bins <= b" is therefore exactly the
	// raw-value split "v <= edges[f][b]", which is what lets trained trees
	// keep float thresholds (Predict and serialization are unchanged).
	// Because every edge is an exact value from the column — never a
	// computed midpoint — a threshold cannot round up onto the next
	// value and leak its row left; TestHistThresholdsAreDataValues pins
	// this.
	edges [][]float64
}

// col returns feature f's bin column.
func (b *binned) col(f int) []uint8 { return b.bins[f*b.rows : (f+1)*b.rows] }

// newBinned quantizes X into at most nb bins per feature. Cut points sit at
// quantiles of the full column, deduplicated, so skewed features (queue
// times, memory requests) get resolution where the data lives.
func newBinned(X [][]float64, nb int) *binned {
	if nb <= 1 || nb > maxBins {
		nb = maxBins
	}
	rows := len(X)
	cols := len(X[0])
	bm := &binned{
		rows:  rows,
		cols:  cols,
		bins:  make([]uint8, rows*cols),
		edges: make([][]float64, cols),
	}
	vals := make([]float64, rows)
	for f := 0; f < cols; f++ {
		for i, row := range X {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		edges := make([]float64, 0, nb-1)
		for c := 1; c < nb; c++ {
			v := vals[c*rows/nb]
			if len(edges) == 0 || v > edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		// Drop a final edge equal to the column maximum: it would create a
		// permanently empty last bin (nothing sorts strictly above it).
		if len(edges) > 0 && edges[len(edges)-1] == vals[rows-1] {
			edges = edges[:len(edges)-1]
		}
		bm.edges[f] = edges
		col := bm.col(f)
		for i, row := range X {
			col[i] = uint8(sort.SearchFloat64s(edges, row[f]))
		}
	}
	return bm
}

// nodeHist is one node's per-feature histogram: bin counts and target sums
// with a fixed maxBins stride per feature. Variance-reduction gain needs
// only counts and sums — the Σy² terms cancel between siblings — so no
// sum-of-squares column is kept.
type nodeHist struct {
	count []int32
	sum   []float64
}

// histScratch is the per-Fit workspace for histogram tree construction: the
// shared binned matrix, current targets, a free list of node histograms
// (at most ~2 per tree level live at once thanks to the parent−sibling
// subtraction), and the feature-sampling scratch. One scratch belongs to
// one goroutine; forests use one per concurrent tree.
type histScratch struct {
	bm    *binned
	y     []float64
	free  []*nodeHist
	feats []int
	// workers > 1 enables feature-parallel histogram accumulation and
	// split scanning inside a single tree (used by GBDT, whose rounds are
	// inherently sequential; forests parallelize across trees instead).
	workers int
}

func newHistScratch(bm *binned, y []float64, workers int) *histScratch {
	return &histScratch{bm: bm, y: y, workers: workers, feats: make([]int, bm.cols)}
}

// acquire returns a zeroed histogram sized for the binned matrix.
func (sc *histScratch) acquire() *nodeHist {
	if n := len(sc.free); n > 0 {
		h := sc.free[n-1]
		sc.free = sc.free[:n-1]
		for i := range h.count {
			h.count[i] = 0
		}
		for i := range h.sum {
			h.sum[i] = 0
		}
		return h
	}
	size := sc.bm.cols * maxBins
	return &nodeHist{count: make([]int32, size), sum: make([]float64, size)}
}

// release returns a histogram to the free list.
func (sc *histScratch) release(h *nodeHist) { sc.free = append(sc.free, h) }

// accumulate adds every row in idx to h across all features. All features
// are filled (not just a sampled subset) so the parent−sibling subtraction
// stays valid under per-node feature sampling. Feature-parallel when the
// scratch has workers and the node is big enough to amortize goroutines.
func (sc *histScratch) accumulate(h *nodeHist, idx []int) {
	sc.forFeatures(len(idx), func(lo, hi int) {
		for f := lo; f < hi; f++ {
			col := sc.bm.col(f)
			counts := h.count[f*maxBins : (f+1)*maxBins]
			sums := h.sum[f*maxBins : (f+1)*maxBins]
			for _, i := range idx {
				b := col[i]
				counts[b]++
				sums[b] += sc.y[i]
			}
		}
	})
}

// subtractInto computes h -= child in place, turning a parent histogram
// into the sibling of the child that was scanned — the subtraction trick
// that means each split only ever pays for its smaller side.
func (sc *histScratch) subtractInto(h, child *nodeHist) {
	for i, c := range child.count {
		h.count[i] -= c
	}
	for i, s := range child.sum {
		h.sum[i] -= s
	}
}

// histParallelRows is the node size below which feature-parallel histogram
// work is not worth the goroutine fan-out.
const histParallelRows = 2048

// forFeatures runs fn over contiguous feature ranges, in parallel when the
// scratch is configured for it and the node spans enough rows.
func (sc *histScratch) forFeatures(nodeRows int, fn func(lo, hi int)) {
	workers := sc.workers
	if workers > sc.bm.cols {
		workers = sc.bm.cols
	}
	if workers < 2 || nodeRows < histParallelRows {
		fn(0, sc.bm.cols)
		return
	}
	var wg sync.WaitGroup
	chunk := (sc.bm.cols + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > sc.bm.cols {
			hi = sc.bm.cols
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// fitBinned grows the tree over pre-binned features. idx is owned by the
// call and may be permuted.
func (t *Tree) fitBinned(sc *histScratch, idx []int, rng *rand.Rand) *treeNode {
	root := sc.acquire()
	sc.accumulate(root, idx)
	return t.buildHist(sc, idx, 0, root, rng)
}

// buildHist recursively grows the tree from a node whose histogram h has
// already been computed. Ownership of h transfers to this call: it is
// either recycled (leaf) or reused in place as the larger child's histogram
// after subtracting the smaller child's freshly scanned one.
func (t *Tree) buildHist(sc *histScratch, idx []int, depth int, h *nodeHist, rng *rand.Rand) *treeNode {
	if depth >= t.Cfg.MaxDepth || len(idx) < 2*t.Cfg.MinLeaf {
		sc.release(h)
		return &treeNode{leaf: true, value: meanHist(sc.y, idx)}
	}
	feat, bin, ok := t.bestSplitHist(sc, h, len(idx), rng)
	if !ok {
		sc.release(h)
		return &treeNode{leaf: true, value: meanHist(sc.y, idx)}
	}
	col := sc.bm.col(feat)
	lo, hi := 0, len(idx)
	for lo < hi {
		if col[idx[lo]] <= bin {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo < t.Cfg.MinLeaf || len(idx)-lo < t.Cfg.MinLeaf {
		// Unreachable in principle (the histogram scan enforced MinLeaf
		// from exact bin counts) but kept as a safety net.
		sc.release(h)
		return &treeNode{leaf: true, value: meanHist(sc.y, idx)}
	}
	left, right := idx[:lo], idx[lo:]
	leftIsSmall := len(left) <= len(right)
	small := right
	if leftIsSmall {
		small = left
	}
	smallH := sc.acquire()
	sc.accumulate(smallH, small)
	sc.subtractInto(h, smallH) // h is now the larger child's histogram
	lh, rh := smallH, h
	if !leftIsSmall {
		lh, rh = h, smallH
	}
	n := &treeNode{feature: feat, threshold: sc.bm.edges[feat][bin]}
	n.left = t.buildHist(sc, left, depth+1, lh, rng)
	n.right = t.buildHist(sc, right, depth+1, rh, rng)
	return n
}

func meanHist(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// bestSplitHist scans each candidate feature's histogram for the bin
// boundary with the greatest variance reduction. With k bins this is O(k)
// per feature after the O(rows) accumulation already done.
func (t *Tree) bestSplitHist(sc *histScratch, h *nodeHist, nRows int, rng *rand.Rand) (feat int, bin uint8, ok bool) {
	dim := sc.bm.cols
	feats := sc.feats[:dim]
	for i := range feats {
		feats[i] = i
	}
	if t.Cfg.MaxFeatures > 0 && t.Cfg.MaxFeatures < dim {
		rng.Shuffle(dim, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:t.Cfg.MaxFeatures]
	}

	var totalSum float64
	f0 := feats[0]
	for _, s := range h.sum[f0*maxBins : (f0+1)*maxBins] {
		totalSum += s
	}
	n := float64(nRows)
	base := totalSum * totalSum / n

	// Each candidate feature scans independently; results reduce by gain
	// with position-in-feats order breaking ties, so the feature-parallel
	// path is bit-identical to the serial one.
	type split struct {
		gain float64
		pos  int
		bin  uint8
	}
	bestOf := func(lo, hi int) split {
		best := split{gain: 1e-12, pos: -1}
		for p := lo; p < hi; p++ {
			f := feats[p]
			nb := len(sc.bm.edges[f]) // candidate boundaries (bins-1)
			if nb == 0 {
				continue // constant feature
			}
			counts := h.count[f*maxBins : (f+1)*maxBins]
			sums := h.sum[f*maxBins : (f+1)*maxBins]
			var leftN int32
			var leftSum float64
			for b := 0; b < nb; b++ {
				leftN += counts[b]
				leftSum += sums[b]
				rightN := int32(nRows) - leftN
				if int(leftN) < t.Cfg.MinLeaf || int(rightN) < t.Cfg.MinLeaf {
					continue
				}
				rightSum := totalSum - leftSum
				gain := leftSum*leftSum/float64(leftN) + rightSum*rightSum/float64(rightN) - base
				if gain > best.gain {
					best = split{gain: gain, pos: p, bin: uint8(b)}
				}
			}
		}
		return best
	}

	var best split
	workers := sc.workers
	if workers > len(feats) {
		workers = len(feats)
	}
	if workers >= 2 && nRows >= histParallelRows {
		parts := make([]split, workers)
		var wg sync.WaitGroup
		chunk := (len(feats) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(feats) {
				hi = len(feats)
			}
			if lo >= hi {
				parts[w] = split{gain: 1e-12, pos: -1}
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				parts[w] = bestOf(lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		best = split{gain: 1e-12, pos: -1}
		for _, p := range parts {
			if p.pos < 0 {
				continue
			}
			if p.gain > best.gain || (p.gain == best.gain && best.pos >= 0 && p.pos < best.pos) {
				best = p
			}
		}
	} else {
		best = bestOf(0, len(feats))
	}
	if best.pos < 0 {
		return 0, 0, false
	}
	return feats[best.pos], best.bin, true
}
