package intervaltree_test

import (
	"fmt"
	"sort"

	"repro/internal/intervaltree"
)

// Stab queries answer "which jobs were pending/running at instant t" — the
// primitive behind the paper's Table II feature engineering.
func ExampleTree_StabVisit() {
	tree := intervaltree.Build([]intervaltree.Interval{
		{Lo: 0, Hi: 100, ID: 1},  // job 1 runs [0, 100)
		{Lo: 50, Hi: 150, ID: 2}, // job 2 runs [50, 150)
		{Lo: 200, Hi: 300, ID: 3},
	})
	var ids []int
	tree.StabVisit(75, func(iv intervaltree.Interval) { ids = append(ids, iv.ID) })
	sort.Ints(ids)
	fmt.Println(ids)
	// Output:
	// [1 2]
}

// BuildChunked reproduces the paper's construction: trees over 100k-job
// chunks with 10k-job overlap, merged into one (shown here at toy scale).
func ExampleBuildChunked() {
	ivs := make([]intervaltree.Interval, 25)
	for i := range ivs {
		ivs[i] = intervaltree.Interval{Lo: int64(i), Hi: int64(i + 10), ID: i}
	}
	tree := intervaltree.BuildChunked(ivs, 10, 2)
	fmt.Println(tree.Size())
	// Output:
	// 25
}
