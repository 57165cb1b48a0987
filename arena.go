package trout

import (
	"sync"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/trace"
)

// predictArena is the scratch of one POST or GET /predict or POST
// /predict/batch: every slice the request fills on its way from the body
// to the response, each sized by the batch and reused by the next request
// through arenaPool. A warm request therefore allocates the same amount
// whatever its batch size. A single predict draws one too and is a batch
// of one on the same path.
//
// Everything in it, and everything a method hands out of it (snapshots,
// rows, results, response items), is the request's until putArena, which
// runs after the response is written; nothing may keep any of it past
// that. Bundle's exported methods run the same body on a fresh arena and
// never pool it, so their results are the caller's to keep.
type predictArena struct {
	one     predictRequest       // a POST /predict body
	batch   predictBatchRequest  // a POST /predict/batch body
	jobs    []trace.Job          // the request's hypothetical jobs
	block   []features.Snapshot  // one snapshot per job
	snaps   []*features.Snapshot // block's pointers, or a GET's one snapshot
	slab    []float64            // feature rows, features.NumFeatures each
	rows    [][]float64          // the rows that built, views of slab
	rowOf   []int                // rows index -> snaps index
	preds   []core.Prediction    // the NN tier's answer per row
	results []BatchResult        // one per snapshot
	items   []batchItem          // /predict/batch's response entries
}

// defaultMaxBatchJobs is ServiceConfig.MaxBatchJobs's default.
const defaultMaxBatchJobs = 256

// maxPooledJobs bounds what a pooled arena may hold: one any of whose
// slices has room for more jobs (a body over the cap, or a service run
// with a larger cap or none) is dropped, so an odd huge batch cannot pin
// its memory for the daemon's lifetime. It is twice defaultMaxBatchJobs
// because append rounds a full batch's 256 decoded jobs up to room for 323.
const maxPooledJobs = 2 * defaultMaxBatchJobs

var arenaPool = sync.Pool{New: func() any { return new(predictArena) }}

func getArena() *predictArena { return arenaPool.Get().(*predictArena) }

// putArena gives a back to the pool. It first drops the decoded bodies,
// whose job slice encoding/json may have filled past the cap before it
// refused the body, then the references the arena holds into the engine's
// queue memo and the per-job errors, so a pooled arena pins none of them.
func putArena(a *predictArena) {
	a.one, a.batch = predictRequest{}, predictBatchRequest{}
	if a.room() > maxPooledJobs {
		return
	}
	clear(a.jobs[:cap(a.jobs)])
	clear(a.block[:cap(a.block)])
	clear(a.snaps[:cap(a.snaps)])
	clear(a.results[:cap(a.results)])
	clear(a.items[:cap(a.items)])
	arenaPool.Put(a)
}

// room is the most jobs any of a's slices has room for.
func (a *predictArena) room() int {
	return max(cap(a.jobs), cap(a.block), cap(a.snaps), cap(a.slab)/features.NumFeatures,
		cap(a.rows), cap(a.rowOf), cap(a.preds), cap(a.results), cap(a.items))
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are stale: callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// snapshotsOf points a.snaps at a.block's first n snapshots.
func (a *predictArena) snapshotsOf(n int) []*features.Snapshot {
	a.snaps = resize(a.snaps, n)
	for i := range a.snaps {
		a.snaps[i] = &a.block[i]
	}
	return a.snaps
}
