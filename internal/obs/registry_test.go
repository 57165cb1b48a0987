package obs

import (
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_ops_total", "Operations.", func() float64 { return 3 })
	cv := r.CounterVec("test_requests_total", "Requests.", "path", "code")
	cv.Inc("/b", "200")
	cv.Inc("/a", "200")
	cv.Inc("/a", "500")
	r.GaugeFunc("test_temp", "Temperature.", func() float64 { return 1.5 })
	h := r.Histogram("test_size", "Sizes.", []float64{1, 2, 4})
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	want := []string{
		"# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 3\n",
		`test_requests_total{path="/a",code="200"} 1`,
		`test_requests_total{path="/a",code="500"} 1`,
		`test_requests_total{path="/b",code="200"} 1`,
		"test_temp 1.5",
		`test_size_bucket{le="1"} 0`,
		`test_size_bucket{le="2"} 0`,
		`test_size_bucket{le="4"} 1`,
		`test_size_bucket{le="+Inf"} 2`,
		"test_size_sum 103",
		"test_size_count 2",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n%s", w, out)
		}
	}
	// Series of a vec must sort by label values.
	if strings.Index(out, `{path="/a",code="200"}`) > strings.Index(out, `{path="/b",code="200"}`) {
		t.Error("series not sorted by label values")
	}
}

func TestRegistryDeterministic(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_x_total", "X.", "k")
	for _, k := range []string{"zebra", "apple", "mango"} {
		cv.Inc(k)
	}
	r.GaugeFunc("test_y", "Y.", func() float64 { return 7 })

	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two scrapes differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_esc_total", "Line one\nwith \\backslash.", "v")
	cv.Inc(`a"b\c` + "\nd")

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP test_esc_total Line one\nwith \\backslash.`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_esc_total{v="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_dup_total", "First.", "k")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CounterVec("test_dup_total", "Second.", "k")
}

func TestCounterVecSnapshot(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_snap_total", "Snap.", "tier")
	cv.Inc("nn")
	cv.Inc("nn")
	cv.Inc("baseline")
	snap := cv.Snapshot()
	if snap["nn"] != 2 || snap["baseline"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestCollectorFamilies(t *testing.T) {
	r := NewRegistry()
	r.CounterVecFunc("test_events_total", "Events.", []string{"type"}, func(emit Emit) {
		emit(5, "start")
		emit(2, "end")
	})
	r.GaugeFunc("test_now", "Now.", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`test_events_total{type="end"} 2`,
		`test_events_total{type="start"} 5`,
		"test_now 42",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
}

func TestHistogramBucketSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "H.", []float64{1, 2, 4})
	// A value exactly on a bound belongs to that bound's bucket (le is
	// inclusive).
	h.Observe(2)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`test_h_bucket{le="1"} 0`,
		`test_h_bucket{le="2"} 1`,
		`test_h_bucket{le="4"} 1`,
		`test_h_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
}
