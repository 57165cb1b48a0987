// Package scaling implements the feature transforms the paper evaluated:
// the natural-log transform applied to all features in the final model, and
// the min-max, standard (z-score) and Box-Cox scalers that were tested and
// rejected (§III). All scalers are fit on training data only and applied to
// held-out data, preserving the paper's time-ordered evaluation discipline.
package scaling

import (
	"fmt"
	"math"
)

// Kind names a scaler.
type Kind string

// Supported scalers.
const (
	None     Kind = "none"
	Log1p    Kind = "log"    // ln(1+x), the paper's choice
	MinMax   Kind = "minmax" // (x-min)/(max-min)
	Standard Kind = "standard"
	BoxCox   Kind = "boxcox"
)

// Scaler transforms feature columns. Fit learns column statistics from the
// training matrix (rows = samples); Transform applies them into a fresh
// slice, and transformInto — each scaler's one body — into the caller's.
type Scaler interface {
	Fit(rows [][]float64)
	Transform(row []float64) []float64
	Kind() Kind
	transformInto(dst, row []float64)
}

// TransformInto writes s.Transform(row) into dst (which must be len(row)
// long) without allocating: the hot inference paths scale straight into a
// pooled workspace row.
func TransformInto(s Scaler, dst, row []float64) { s.transformInto(dst, row) }

// transform is every scaler's Transform: allocate, then transformInto.
func transform(s Scaler, row []float64) []float64 {
	out := make([]float64, len(row))
	s.transformInto(out, row)
	return out
}

// New returns a scaler of the given kind.
func New(kind Kind) (Scaler, error) {
	switch kind {
	case None:
		return &noneScaler{}, nil
	case Log1p:
		return &logScaler{}, nil
	case MinMax:
		return &minMaxScaler{}, nil
	case Standard:
		return &standardScaler{}, nil
	case BoxCox:
		return &boxCoxScaler{}, nil
	default:
		return nil, fmt.Errorf("scaling: unknown kind %q", kind)
	}
}

// Kinds lists every supported scaler (for the A5 ablation sweep).
func Kinds() []Kind { return []Kind{None, Log1p, MinMax, Standard, BoxCox} }

type noneScaler struct{}

func (s *noneScaler) Fit([][]float64)                   {}
func (s *noneScaler) Transform(row []float64) []float64 { return transform(s, row) }
func (s *noneScaler) transformInto(dst, row []float64)  { copy(dst, row) }
func (s *noneScaler) Kind() Kind                        { return None }

// logScaler applies ln(1+max(x,0)) element-wise; negative inputs (which the
// queue features never produce) are clamped to 0.
type logScaler struct{}

func (s *logScaler) Fit([][]float64)                   {}
func (s *logScaler) Transform(row []float64) []float64 { return transform(s, row) }
func (s *logScaler) transformInto(dst, row []float64) {
	for i, v := range row {
		if v < 0 {
			v = 0
		}
		dst[i] = math.Log1p(v)
	}
}
func (s *logScaler) Kind() Kind { return Log1p }

type minMaxScaler struct {
	min, span []float64
}

func (s *minMaxScaler) Fit(rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	d := len(rows[0])
	s.min = make([]float64, d)
	maxv := make([]float64, d)
	for j := 0; j < d; j++ {
		s.min[j] = math.Inf(1)
		maxv[j] = math.Inf(-1)
	}
	for _, r := range rows {
		for j, v := range r {
			if v < s.min[j] {
				s.min[j] = v
			}
			if v > maxv[j] {
				maxv[j] = v
			}
		}
	}
	s.span = make([]float64, d)
	for j := 0; j < d; j++ {
		s.span[j] = maxv[j] - s.min[j]
		if s.span[j] == 0 {
			s.span[j] = 1
		}
	}
}

func (s *minMaxScaler) Transform(row []float64) []float64 { return transform(s, row) }
func (s *minMaxScaler) transformInto(dst, row []float64) {
	if s.min == nil {
		copy(dst, row)
		return
	}
	for j, v := range row {
		dst[j] = (v - s.min[j]) / s.span[j]
	}
}
func (s *minMaxScaler) Kind() Kind { return MinMax }

type standardScaler struct {
	mean, std []float64
}

func (s *standardScaler) Fit(rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	d := len(rows[0])
	s.mean = make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			s.mean[j] += v
		}
	}
	n := float64(len(rows))
	for j := range s.mean {
		s.mean[j] /= n
	}
	s.std = make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			dev := v - s.mean[j]
			s.std[j] += dev * dev
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / n)
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
}

func (s *standardScaler) Transform(row []float64) []float64 { return transform(s, row) }
func (s *standardScaler) transformInto(dst, row []float64) {
	if s.mean == nil {
		copy(dst, row)
		return
	}
	for j, v := range row {
		dst[j] = (v - s.mean[j]) / s.std[j]
	}
}
func (s *standardScaler) Kind() Kind { return Standard }

// boxCoxScaler fits a per-column Box-Cox λ by maximizing the log-likelihood
// over a coarse grid, after shifting columns positive.
type boxCoxScaler struct {
	lambda []float64
	shift  []float64
}

// boxCox applies the Box-Cox transform for a single value (x must be > 0).
func boxCox(x, lambda float64) float64 {
	if lambda == 0 {
		return math.Log(x)
	}
	return (math.Pow(x, lambda) - 1) / lambda
}

func (s *boxCoxScaler) Fit(rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	d := len(rows[0])
	s.lambda = make([]float64, d)
	s.shift = make([]float64, d)
	grid := []float64{-1, -0.5, 0, 0.25, 0.5, 1, 2}
	col := make([]float64, len(rows))
	for j := 0; j < d; j++ {
		minv := math.Inf(1)
		for i, r := range rows {
			col[i] = r[j]
			if r[j] < minv {
				minv = r[j]
			}
		}
		if minv <= 0 {
			s.shift[j] = 1 - minv
		}
		bestLL := math.Inf(-1)
		best := 1.0
		for _, lam := range grid {
			ll := boxCoxLL(col, s.shift[j], lam)
			if ll > bestLL {
				bestLL = ll
				best = lam
			}
		}
		s.lambda[j] = best
	}
}

// boxCoxLL is the profile log-likelihood of λ for one column.
func boxCoxLL(col []float64, shift, lambda float64) float64 {
	n := float64(len(col))
	var mean float64
	tr := make([]float64, len(col))
	var logSum float64
	for i, x := range col {
		x += shift
		tr[i] = boxCox(x, lambda)
		mean += tr[i]
		logSum += math.Log(x)
	}
	mean /= n
	var ss float64
	for _, v := range tr {
		ss += (v - mean) * (v - mean)
	}
	variance := ss / n
	if variance <= 0 {
		return math.Inf(-1)
	}
	return -n/2*math.Log(variance) + (lambda-1)*logSum
}

func (s *boxCoxScaler) Transform(row []float64) []float64 { return transform(s, row) }
func (s *boxCoxScaler) transformInto(dst, row []float64) {
	if s.lambda == nil {
		copy(dst, row)
		return
	}
	for j, v := range row {
		x := v + s.shift[j]
		if x <= 0 {
			x = 1e-9
		}
		dst[j] = boxCox(x, s.lambda[j])
	}
}
func (s *boxCoxScaler) Kind() Kind { return BoxCox }

// TransformAll applies a fitted scaler to every row.
func TransformAll(s Scaler, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Transform(r)
	}
	return out
}
