package obs

import (
	"sync"
)

// AccuracyTracker closes the loop between served predictions and what
// the cluster actually did: Record remembers recent predictions keyed
// by job ID, Resolve joins one against the realized queue time when the
// live-state engine observes the job's start event, and the rolling
// window of joined outcomes yields online classifier hit-rate,
// regression MAE/MAPE, and a calibration drift signal — the production
// counterpart of the paper's offline evaluation.
type AccuracyTracker struct {
	cutoff     float64
	pendingCap int
	window     int

	mu      sync.Mutex
	pending map[int]predRec
	fifo    []int // job IDs in Record order; head marks the oldest live entry
	head    int

	out  []outcome // ring of joined outcomes
	next int
	n    int

	joined    uint64
	evicted   uint64
	unmatched uint64
}

// predRec is one remembered prediction.
type predRec struct {
	prob    float64
	minutes float64
	long    bool
}

// outcome is one prediction joined against ground truth.
type outcome struct {
	prob          float64
	predMinutes   float64
	actualMinutes float64
	predLong      bool
	actualLong    bool
}

// NewAccuracyTracker tracks up to pendingCap unresolved predictions
// (FIFO-evicted; 0 means 4096) and computes rolling statistics over the
// last window joined outcomes (0 means 512). cutoffMinutes is the
// long/short boundary the classifier was trained against.
func NewAccuracyTracker(cutoffMinutes float64, pendingCap, window int) *AccuracyTracker {
	if pendingCap <= 0 {
		pendingCap = 4096
	}
	if window <= 0 {
		window = 512
	}
	return &AccuracyTracker{
		cutoff:     cutoffMinutes,
		pendingCap: pendingCap,
		window:     window,
		pending:    make(map[int]predRec, pendingCap),
		out:        make([]outcome, window),
	}
}

// Record remembers a served prediction for jobID (ignored for
// non-positive IDs — hypothetical jobs without identity can never be
// joined). A newer prediction for the same job replaces the older one.
func (t *AccuracyTracker) Record(jobID int, prob, minutes float64, long bool) {
	if t == nil || jobID <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.pending[jobID]; !ok {
		t.fifo = append(t.fifo, jobID)
		for len(t.pending) >= t.pendingCap && t.head < len(t.fifo) {
			old := t.fifo[t.head]
			t.head++
			if _, live := t.pending[old]; live && old != jobID {
				delete(t.pending, old)
				t.evicted++
			}
		}
		// Compact the dead prefix once it dominates.
		if t.head > 1024 && t.head*2 > len(t.fifo) {
			t.fifo = append([]int(nil), t.fifo[t.head:]...)
			t.head = 0
		}
	}
	t.pending[jobID] = predRec{prob: prob, minutes: minutes, long: long}
}

// Resolve joins a start observation against a remembered prediction:
// the realized queue time is start−eligible (clamped at zero). It
// reports whether a prediction was found. Jobs never predicted count as
// unmatched and are otherwise ignored.
func (t *AccuracyTracker) Resolve(jobID int, eligible, start int64) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.pending[jobID]
	if !ok {
		t.unmatched++
		return false
	}
	delete(t.pending, jobID)
	actual := float64(start-eligible) / 60.0
	if actual < 0 {
		actual = 0
	}
	t.out[t.next] = outcome{
		prob:          rec.prob,
		predMinutes:   rec.minutes,
		actualMinutes: actual,
		predLong:      rec.long,
		actualLong:    actual >= t.cutoff,
	}
	t.next = (t.next + 1) % t.window
	if t.n < t.window {
		t.n++
	}
	t.joined++
	return true
}

// Reset forgets every pending prediction and the rolling window, so what
// the tracker joins from now on is only what was recorded after it: the
// service calls it when the model answering predictions changes.
// Joined, Evicted and Unmatched stay monotonic; a start event for a
// forgotten prediction counts as unmatched.
func (t *AccuracyTracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.pending)
	t.fifo, t.head = t.fifo[:0], 0
	t.next, t.n = 0, 0
}

// OnlineStats is a consistent snapshot of the tracker's rolling window.
type OnlineStats struct {
	// Joined counts predictions ever matched to a start event; Window is
	// how many of them the rolling statistics currently cover.
	Joined  uint64
	Window  int
	Pending int
	Evicted uint64
	// Unmatched counts start events for jobs that were never predicted.
	Unmatched uint64
	// HitRate is the fraction of the window where the classifier verdict
	// (long vs quick-start) matched reality. 0 when the window is empty.
	HitRate float64
	// MAEMinutes / MAPE cover the window's regression claims — outcomes
	// the model classified long, where the regressor produced minutes.
	// Both are 0 when no such outcome exists. MAPE uses a 1-minute
	// denominator floor, matching the offline metric.
	MAEMinutes     float64
	MAPE           float64
	RegressionObbs int
	// CalibrationDrift is mean predicted long-probability minus the
	// observed long fraction over the window: positive means the
	// classifier has grown overconfident about queueing, negative
	// underconfident. Near zero is calibrated.
	CalibrationDrift float64
}

// Stats computes the rolling statistics.
func (t *AccuracyTracker) Stats() OnlineStats {
	if t == nil {
		return OnlineStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := OnlineStats{
		Joined:    t.joined,
		Window:    t.n,
		Pending:   len(t.pending),
		Evicted:   t.evicted,
		Unmatched: t.unmatched,
	}
	if t.n == 0 {
		return st
	}
	var hits int
	var probSum, longFrac float64
	var absErr, pctErr float64
	for i := 0; i < t.n; i++ {
		o := t.out[i]
		if o.predLong == o.actualLong {
			hits++
		}
		probSum += o.prob
		if o.actualLong {
			longFrac++
		}
		if o.predLong {
			st.RegressionObbs++
			diff := o.predMinutes - o.actualMinutes
			if diff < 0 {
				diff = -diff
			}
			absErr += diff
			den := o.actualMinutes
			if den < 1 {
				den = 1 // same floor as the offline MAPE
			}
			pctErr += diff / den
		}
	}
	n := float64(t.n)
	st.HitRate = float64(hits) / n
	st.CalibrationDrift = probSum/n - longFrac/n
	if st.RegressionObbs > 0 {
		st.MAEMinutes = absErr / float64(st.RegressionObbs)
		st.MAPE = 100 * pctErr / float64(st.RegressionObbs)
	}
	return st
}

// Register exports the tracker on a registry under the trout_online_*
// families. Gauges are sampled at scrape time, so /metrics always shows
// the current window.
func (t *AccuracyTracker) Register(r *Registry) {
	r.CounterFunc("trout_online_joined_total",
		"Served predictions joined against a realized start event.",
		func() float64 { return float64(t.Stats().Joined) })
	r.CounterFunc("trout_online_unmatched_starts_total",
		"Start events observed for jobs that were never predicted.",
		func() float64 { return float64(t.Stats().Unmatched) })
	r.CounterFunc("trout_online_evicted_total",
		"Tracked predictions dropped before their job started (capacity).",
		func() float64 { return float64(t.Stats().Evicted) })
	r.GaugeFunc("trout_online_pending_predictions",
		"Predictions awaiting their job's start event.",
		func() float64 { return float64(t.Stats().Pending) })
	r.GaugeFunc("trout_online_window_size",
		"Joined outcomes inside the rolling statistics window.",
		func() float64 { return float64(t.Stats().Window) })
	r.GaugeFunc("trout_online_hit_rate",
		"Rolling fraction of classifier verdicts (long vs quick-start) that matched reality.",
		func() float64 { return t.Stats().HitRate })
	r.GaugeFunc("trout_online_mae_minutes",
		"Rolling mean absolute error of regression claims, in minutes.",
		func() float64 { return t.Stats().MAEMinutes })
	r.GaugeFunc("trout_online_mape",
		"Rolling mean absolute percentage error of regression claims (1-minute floor).",
		func() float64 { return t.Stats().MAPE })
	r.GaugeFunc("trout_online_calibration_drift",
		"Mean predicted long-probability minus observed long fraction over the window.",
		func() float64 { return t.Stats().CalibrationDrift })
}
