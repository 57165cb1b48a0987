// Package resilience provides the fault-tolerance primitives behind the
// dashboard service and training stack: a tiered fallback prediction chain,
// numeric sanity helpers, and HTTP middleware for panic recovery,
// per-request deadlines, and request-body limits.
//
// The design target is graceful degradation (Brown et al., arXiv:2204.13543):
// a queue-time predictor embedded in a long-running service must keep
// answering — with a cruder estimate and an honest tag — rather than fail
// when one layer of the model stack misbehaves.
package resilience

import (
	"fmt"
	"math"
	"sort"
)

// Canonical tier names used by the prediction fallback chain. TierError is
// not a predictor: it counts requests for which every tier failed.
const (
	TierNN        = "nn"
	TierBaseline  = "baseline"
	TierHeuristic = "heuristic"
	TierError     = "error"
)

// Step is one tier of a fallback chain.
type Step[T any] struct {
	// Tier names the step for metrics and response tags.
	Tier string
	// Predict produces a candidate answer. A panic inside Predict is
	// recovered and treated as an error, so a corrupt model cannot take
	// the caller down.
	Predict func() (T, error)
	// Check vets the candidate (e.g. rejects NaN); nil accepts anything.
	Check func(T) error
}

// Run tries steps in order and returns the first answer whose Predict
// succeeds (no error, no panic) and whose Check passes, together with the
// tier that produced it — or TierError and the last error when every step
// fails.
func Run[T any](steps []Step[T]) (T, string, error) {
	var zero T
	var lastErr error
	for _, s := range steps {
		v, err := safePredict(s.Predict)
		if err == nil && s.Check != nil {
			err = s.Check(v)
		}
		if err != nil {
			lastErr = fmt.Errorf("resilience: tier %s: %w", s.Tier, err)
			continue
		}
		return v, s.Tier, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("resilience: empty fallback chain")
	}
	return zero, TierError, lastErr
}

// safePredict invokes fn, converting a panic into an error.
func safePredict[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("predictor panicked: %v", p)
		}
	}()
	if fn == nil {
		return v, fmt.Errorf("nil predictor")
	}
	return fn()
}

// Finite reports whether every value is finite (no NaN or ±Inf).
func Finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Median returns the median of xs (0 for an empty slice); xs is not
// modified. It backs the partition-median heuristic tier.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
