// Package metrics implements the evaluation measures the paper reports:
// mean absolute percentage error (the primary comparison metric), Pearson
// correlation (Figs 4/5), the fraction of predictions within an error
// threshold (Figs 8/9), binary classification accuracy and the related
// confusion-matrix quantities, plus standard regression errors and the
// histogram helper behind the queue-time density figure (Fig 2).
//
// These are *offline* measures: they score a trained model against a
// held-out dataset. Runtime telemetry for the serving stack — request
// counters, latency histograms, the /metrics exposition, and the rolling
// *online* accuracy of served predictions against realized queue times —
// lives in internal/obs instead. If a number describes a model on a test
// set, it belongs here; if it describes a process serving traffic, it
// belongs in internal/obs.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// mapeFloor is the minimum denominator (in target units) when computing
// percent errors, so near-zero actuals do not produce infinite percentages.
// The paper evaluates MAPE on the long-job subset (actual > 10 min), where
// the floor never binds; it only matters for all-jobs ablations.
const mapeFloor = 1.0

// MAPE returns the mean absolute percentage error, in percent.
func MAPE(pred, actual []float64) float64 {
	mustSameLen(pred, actual)
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		den := math.Max(math.Abs(actual[i]), mapeFloor)
		s += math.Abs(p-actual[i]) / den
	}
	return 100 * s / float64(len(pred))
}

// WithinPercent returns the fraction of predictions whose absolute percent
// error is below pct (e.g. 100 for the paper's "within 100 % error").
func WithinPercent(pred, actual []float64, pct float64) float64 {
	mustSameLen(pred, actual)
	if len(pred) == 0 {
		return 0
	}
	n := 0
	for i, p := range pred {
		den := math.Max(math.Abs(actual[i]), mapeFloor)
		if 100*math.Abs(p-actual[i])/den < pct {
			n++
		}
	}
	return float64(n) / float64(len(pred))
}

// Pearson returns the Pearson correlation coefficient r.
func Pearson(x, y []float64) float64 {
	mustSameLen(x, y)
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MAE returns the mean absolute error.
func MAE(pred, actual []float64) float64 {
	mustSameLen(pred, actual)
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred {
		s += math.Abs(p - actual[i])
	}
	return s / float64(len(pred))
}

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Confuse tallies predictions (probabilities thresholded at 0.5 unless the
// inputs are already 0/1) against boolean labels.
func Confuse(predProb []float64, label []bool) Confusion {
	if len(predProb) != len(label) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(predProb), len(label)))
	}
	var c Confusion
	for i, p := range predProb {
		pos := p >= 0.5
		switch {
		case pos && label[i]:
			c.TP++
		case pos && !label[i]:
			c.FP++
		case !pos && label[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Accuracy returns (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.TN + c.FP + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Precision returns TP/(TP+FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// BalancedAccuracy returns the mean of per-class recalls — the paper reports
// "similar accuracy on both classes", which this captures in one number.
func (c Confusion) BalancedAccuracy() float64 {
	var pos, neg float64
	if c.TP+c.FN > 0 {
		pos = float64(c.TP) / float64(c.TP+c.FN)
	}
	if c.TN+c.FP > 0 {
		neg = float64(c.TN) / float64(c.TN+c.FP)
	}
	return (pos + neg) / 2
}

// HistBin is one bin of a histogram.
type HistBin struct {
	Lo, Hi float64
	Count  int
}

// LogHistogram bins positive values into n log-spaced bins between the
// smallest positive value (or 0.1) and the max — the presentation used for
// the paper's queue-time density graph. Non-positive values land in the
// first bin.
func LogHistogram(xs []float64, n int) []HistBin {
	if n <= 0 || len(xs) == 0 {
		return nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x > 0 && x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) {
		lo = 0.1
	}
	if lo < 0.1 {
		lo = 0.1
	}
	if hi <= lo {
		hi = lo * 10
	}
	logLo, logHi := math.Log10(lo), math.Log10(hi)
	width := (logHi - logLo) / float64(n)
	bins := make([]HistBin, n)
	for i := range bins {
		bins[i].Lo = math.Pow(10, logLo+float64(i)*width)
		bins[i].Hi = math.Pow(10, logLo+float64(i+1)*width)
	}
	for _, x := range xs {
		idx := 0
		if x > 0 {
			idx = int((math.Log10(x) - logLo) / width)
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		bins[idx].Count++
	}
	return bins
}

func mustSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(a), len(b)))
	}
}

// CalibrationBin is one probability bucket of a reliability diagram.
type CalibrationBin struct {
	LoProb, HiProb float64
	MeanPred       float64 // mean predicted probability in the bin
	FracPositive   float64 // empirical positive rate in the bin
	Count          int
}

// Calibration bins predicted probabilities into n equal-width buckets and
// reports the empirical positive rate per bucket — the reliability diagram
// for the quick-start/long classifier. Perfectly calibrated probabilities
// put FracPositive ≈ MeanPred in every bin.
func Calibration(predProb []float64, label []bool, n int) []CalibrationBin {
	if len(predProb) != len(label) {
		panic(fmt.Sprintf("metrics: %d probabilities vs %d labels", len(predProb), len(label)))
	}
	if n <= 0 || len(predProb) == 0 {
		return nil
	}
	bins := make([]CalibrationBin, n)
	sums := make([]float64, n)
	pos := make([]int, n)
	for i := range bins {
		bins[i].LoProb = float64(i) / float64(n)
		bins[i].HiProb = float64(i+1) / float64(n)
	}
	for i, p := range predProb {
		idx := int(p * float64(n))
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		bins[idx].Count++
		sums[idx] += p
		if label[i] {
			pos[idx]++
		}
	}
	for i := range bins {
		if bins[i].Count > 0 {
			bins[i].MeanPred = sums[i] / float64(bins[i].Count)
			bins[i].FracPositive = float64(pos[i]) / float64(bins[i].Count)
		}
	}
	return bins
}

// ExpectedCalibrationError is the count-weighted mean |MeanPred −
// FracPositive| over a reliability diagram's bins.
func ExpectedCalibrationError(bins []CalibrationBin) float64 {
	var total, weighted float64
	for _, b := range bins {
		total += float64(b.Count)
		weighted += float64(b.Count) * math.Abs(b.MeanPred-b.FracPositive)
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// AUC returns the area under the ROC curve via the rank-sum (Mann-Whitney
// U) formulation, with the standard midrank correction for tied
// probabilities. 0.5 is chance; 1.0 is perfect ranking of long jobs above
// quick-start jobs.
func AUC(predProb []float64, label []bool) float64 {
	if len(predProb) != len(label) {
		panic(fmt.Sprintf("metrics: %d probabilities vs %d labels", len(predProb), len(label)))
	}
	type pair struct {
		p   float64
		pos bool
	}
	ps := make([]pair, len(predProb))
	nPos, nNeg := 0, 0
	for i, p := range predProb {
		ps[i] = pair{p, label[i]}
		if label[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].p < ps[b].p })
	// Midranks over ties.
	var rankSumPos float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].p == ps[i].p {
			j++
		}
		// Ranks i+1..j share the midrank.
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if ps[k].pos {
				rankSumPos += mid
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}
