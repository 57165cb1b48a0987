package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMAPE(t *testing.T) {
	// Paper's own example: predicting 1 for 10 is 90% off; 10 for 30 is ~67%.
	got := MAPE([]float64{1}, []float64{10})
	if !almost(got, 90, 1e-9) {
		t.Fatalf("MAPE = %v, want 90", got)
	}
	got = MAPE([]float64{10, 1}, []float64{30, 10})
	want := (100*20.0/30 + 90) / 2
	if !almost(got, want, 1e-9) {
		t.Fatalf("MAPE = %v, want %v", got, want)
	}
	if MAPE(nil, nil) != 0 {
		t.Fatal("empty MAPE should be 0")
	}
}

func TestMAPEFloor(t *testing.T) {
	// Actual 0 would divide by zero without the floor.
	got := MAPE([]float64{5}, []float64{0})
	if !almost(got, 500, 1e-9) {
		t.Fatalf("MAPE with zero actual = %v, want 500 (floored)", got)
	}
}

func TestWithinPercent(t *testing.T) {
	pred := []float64{10, 30, 100}
	act := []float64{20, 20, 20} // errors: 50%, 50%, 400%
	if got := WithinPercent(pred, act, 100); !almost(got, 2.0/3.0, 1e-12) {
		t.Fatalf("WithinPercent = %v", got)
	}
	if got := WithinPercent(pred, act, 40); got != 0 {
		t.Fatalf("WithinPercent(40) = %v", got)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !almost(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("constant series r = %v, want 0", got)
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("n<2 should return 0")
	}
}

// Property: Pearson is invariant under positive affine transforms and
// bounded by [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = 3*x[i] + 7
		}
		return almost(Pearson(scaled, y), r, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionErrors(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{2, 2, 5}
	if got := MAE(pred, act); !almost(got, 1, 1e-12) {
		t.Fatalf("MAE = %v", got)
	}
}

func TestConfusionAndDerived(t *testing.T) {
	pred := []float64{0.9, 0.8, 0.2, 0.4, 0.6}
	label := []bool{true, false, false, true, true}
	c := Confuse(pred, label)
	if c.TP != 2 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if !almost(c.Accuracy(), 0.6, 1e-12) {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	if !almost(c.Precision(), 2.0/3.0, 1e-12) {
		t.Fatalf("precision = %v", c.Precision())
	}
	if !almost(c.Recall(), 2.0/3.0, 1e-12) {
		t.Fatalf("recall = %v", c.Recall())
	}
	if !almost(c.F1(), 2.0/3.0, 1e-12) {
		t.Fatalf("F1 = %v", c.F1())
	}
	ba := c.BalancedAccuracy()
	if !almost(ba, (2.0/3.0+0.5)/2, 1e-12) {
		t.Fatalf("balanced accuracy = %v", ba)
	}
}

func TestConfusionEmptyEdges(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.BalancedAccuracy() != 0 {
		t.Fatal("empty confusion should produce zeros")
	}
}

func TestLogHistogram(t *testing.T) {
	xs := []float64{0.5, 1, 10, 100, 1000, 0, -3}
	bins := LogHistogram(xs, 4)
	if len(bins) != 4 {
		t.Fatalf("%d bins", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
		if b.Hi <= b.Lo {
			t.Fatalf("bad bin [%v, %v)", b.Lo, b.Hi)
		}
	}
	if total != len(xs) {
		t.Fatalf("histogram drops values: %d of %d", total, len(xs))
	}
	// Bins must be increasing.
	for i := 1; i < len(bins); i++ {
		if !almost(bins[i].Lo, bins[i-1].Hi, 1e-9*bins[i].Lo) {
			t.Fatalf("bins not contiguous at %d", i)
		}
	}
	if LogHistogram(nil, 4) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

func TestCalibrationPerfect(t *testing.T) {
	// Deterministic labels matching probabilities exactly in each bin.
	var probs []float64
	var labels []bool
	for i := 0; i < 1000; i++ {
		k := i % 10
		p := float64(k)/10 + 0.05 // 0.05, 0.15, ... 0.95
		probs = append(probs, p)
		// Positive fraction within each probability class is exactly
		// (2k+1)/20 = p.
		labels = append(labels, (i/10)%20 < 2*k+1)
	}
	bins := Calibration(probs, labels, 10)
	if len(bins) != 10 {
		t.Fatalf("%d bins", len(bins))
	}
	total := 0
	for _, b := range bins {
		total += b.Count
	}
	if total != 1000 {
		t.Fatalf("bins cover %d", total)
	}
	if ece := ExpectedCalibrationError(bins); ece > 0.02 {
		t.Fatalf("ECE %v for calibrated input", ece)
	}
}

func TestCalibrationMiscalibrated(t *testing.T) {
	// Overconfident classifier: always predicts 0.95, half positive.
	probs := make([]float64, 200)
	labels := make([]bool, 200)
	for i := range probs {
		probs[i] = 0.95
		labels[i] = i%2 == 0
	}
	bins := Calibration(probs, labels, 10)
	if ece := ExpectedCalibrationError(bins); math.Abs(ece-0.45) > 1e-9 {
		t.Fatalf("ECE %v, want 0.45", ece)
	}
}

func TestCalibrationEdges(t *testing.T) {
	if Calibration(nil, nil, 10) != nil {
		t.Fatal("empty input should be nil")
	}
	bins := Calibration([]float64{1.0, 0.0}, []bool{true, false}, 5)
	if bins[4].Count != 1 || bins[0].Count != 1 {
		t.Fatal("boundary probabilities misbinned")
	}
	if ExpectedCalibrationError(nil) != 0 {
		t.Fatal("empty ECE should be 0")
	}
}

func TestCalibrationMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Calibration([]float64{0.5}, []bool{true, false}, 5)
}

func TestAUCPerfectAndChance(t *testing.T) {
	probs := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(probs, labels); !almost(got, 1, 1e-12) {
		t.Fatalf("perfect AUC = %v", got)
	}
	inverted := []bool{false, false, true, true}
	if got := AUC(probs, inverted); !almost(got, 0, 1e-12) {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties: AUC must be exactly 0.5 (midrank correction).
	same := []float64{0.7, 0.7, 0.7, 0.7}
	if got := AUC(same, labels); !almost(got, 0.5, 1e-12) {
		t.Fatalf("tied AUC = %v", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One inversion among 2 pos × 2 neg pairs: AUC = 3/4.
	probs := []float64{0.9, 0.4, 0.6, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(probs, labels); !almost(got, 0.75, 1e-12) {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
}

func TestAUCDegenerateClasses(t *testing.T) {
	if got := AUC([]float64{0.5, 0.6}, []bool{true, true}); got != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", got)
	}
}
