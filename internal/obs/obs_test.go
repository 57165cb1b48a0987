package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSanitizeTraceID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc123", "abc123"},
		{"req-42_x.y", "req-42_x.y"},
		{"", ""},
		{"has space", ""},
		{"quote\"id", ""},
		{`back\slash`, ""},
		{"tab\tid", ""},
		{strings.Repeat("a", 65), ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
	}
	for _, c := range cases {
		if got := SanitizeTraceID(c.in); got != c.want {
			t.Errorf("SanitizeTraceID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Errorf("two trace IDs collided: %q", a)
	}
	if SanitizeTraceID(a) != a {
		t.Errorf("generated ID %q fails its own sanitizer", a)
	}
}

func TestSpansNilSafe(t *testing.T) {
	tb := TraceFrom(context.Background())
	if tb != nil {
		t.Errorf("TraceFrom(empty ctx) = %v", tb)
	}
	if got := tb.TraceID(); got != "" {
		t.Errorf("nil trace ID = %q", got)
	}
	// The nil buffer's root is the no-op handle: a whole pipeline can
	// open and end spans under it without recording anything.
	sp := tb.Root().StartChild(StageSnapshot)
	sp.SetAttr("k", "v")
	sp.End()
	if sp.ID() != 0 {
		t.Errorf("span under a nil trace has ID %x", sp.ID())
	}
}

func TestSpansRecord(t *testing.T) {
	tb, root := newTrace("t", "GET /x", time.Now())
	root.StartChild(StageSnapshot).End()
	root.StartChild("not-a-stage").End()
	nested := root.StartChild(StageFeaturize)
	nested.StartChild(StageClassify).End()
	nested.End()
	root.StartChild(StageRegress) // still open: not a timing yet
	got := tb.stages()
	if len(got) != 3 || got[0].stage != StageSnapshot || got[1].stage != StageFeaturize || got[2].stage != StageClassify {
		t.Fatalf("stages = %+v", got)
	}
	for _, s := range got {
		if s.seconds < 0 {
			t.Errorf("negative stage duration %+v", s)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("hello", slog.String("k", "v"))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Errorf("record = %v", rec)
	}
	l.Debug("hidden")
	if strings.Contains(buf.String(), "hidden") {
		t.Error("debug line emitted at info level")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("NewLogger(xml) should fail")
	}
	if _, err := NewLogger(&buf, "info", "text"); err != nil {
		t.Errorf("text format: %v", err)
	}
}

func TestLogf(t *testing.T) {
	if Logf(nil) != nil {
		t.Error("Logf(nil) should be nil")
	}
	var buf bytes.Buffer
	l, _ := NewLogger(&buf, "info", "json")
	Logf(l)("count=%d", 7)
	if !strings.Contains(buf.String(), "count=7") {
		t.Errorf("logf output: %s", buf.String())
	}
}

func TestInstrument(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("test_http_requests_total", "Reqs.", "path", "code")
	lat := r.Histogram("test_http_seconds", "Lat.", DefaultLatencyBuckets)
	stages := r.HistogramVec("test_stage_seconds", "Stage.", DefaultStageBuckets, "stage")
	var buf bytes.Buffer
	logger, _ := NewLogger(&buf, "info", "json")

	var seenID string
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tb := TraceFrom(r.Context())
		seenID = tb.TraceID()
		tb.Root().StartChild(StageClassify).End()
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}), HTTPOptions{Logger: logger, Requests: reqs, Latency: lat, StageLatency: stages})

	// Client-supplied well-formed ID is honoured.
	req := httptest.NewRequest("GET", "/predict", nil)
	req.Header.Set(TraceIDHeader, "client-id-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seenID != "client-id-1" {
		t.Errorf("handler saw trace ID %q, want client-id-1", seenID)
	}
	if got := rec.Header().Get(TraceIDHeader); got != "client-id-1" {
		t.Errorf("response header %q, want client-id-1", got)
	}
	var logRec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &logRec); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, buf.String())
	}
	if logRec["trace_id"] != "client-id-1" {
		t.Errorf("log trace_id = %v", logRec["trace_id"])
	}
	if logRec["status"] != float64(http.StatusTeapot) {
		t.Errorf("log status = %v", logRec["status"])
	}
	spans, ok := logRec["spans"].(map[string]any)
	if !ok || spans[StageClassify] == nil {
		t.Errorf("log spans = %v", logRec["spans"])
	}
	if logRec["bytes"] != float64(len("short and stout")) {
		t.Errorf("log bytes = %v, want %d", logRec["bytes"], len("short and stout"))
	}
	if remote, _ := logRec["remote"].(string); remote == "" || remote != req.RemoteAddr {
		t.Errorf("log remote = %v, want %q", logRec["remote"], req.RemoteAddr)
	}

	// Malformed ID is replaced with a generated one.
	req = httptest.NewRequest("GET", "/predict", nil)
	req.Header.Set(TraceIDHeader, "bad id with spaces")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get(TraceIDHeader)
	if got == "" || got == "bad id with spaces" {
		t.Errorf("malformed ID not replaced: %q", got)
	}
	if seenID != got {
		t.Errorf("handler ID %q != response header %q", seenID, got)
	}

	// Metrics recorded.
	if snap := reqs.Snapshot(); snap["/predict,418"] != 2 {
		t.Errorf("request counter = %v", snap)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_stage_seconds_count{stage="classify"} 2`) {
		t.Errorf("stage histogram missing:\n%s", b.String())
	}
}

// TestInstrumentRecordsAbort: a request that panics out of the chain
// after its reply started is still counted and logged, as StatusAborted,
// and the panic reaches net/http unchanged.
func TestInstrumentRecordsAbort(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("test_http_requests_total", "Reqs.", "path", "code")
	var buf bytes.Buffer
	logger, _ := NewLogger(&buf, "info", "json")
	slo := NewSLOTracker(SLOConfig{})
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic(http.ErrAbortHandler)
	}), HTTPOptions{Logger: logger, Requests: reqs, SLO: slo})

	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("panic %v, want http.ErrAbortHandler", p)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/events", nil))
	}()
	if snap := reqs.Snapshot(); snap["/events,599"] != 1 {
		t.Errorf("request counter = %v", snap)
	}
	var logRec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &logRec); err != nil || logRec["status"] != float64(StatusAborted) {
		t.Errorf("access log %q (err %v), want status %d", buf.String(), err, StatusAborted)
	}
	if st := slo.Status(); st.Windows[0].Requests != 1 || st.Windows[0].AvailabilityBurn == 0 {
		t.Errorf("SLO window %+v, want one bad request", st.Windows[0])
	}
}

func TestAccuracyTracker(t *testing.T) {
	tr := NewAccuracyTracker(10, 4, 8)

	// Unmatched start.
	if tr.Resolve(99, 0, 600) {
		t.Error("resolve of unknown job should be false")
	}

	// Correct long prediction: predicted 30 min long, actual 20 min (>= 10 cutoff).
	tr.Record(1, 0.9, 30, true)
	if !tr.Resolve(1, 1000, 1000+20*60) {
		t.Fatal("resolve failed")
	}
	// Correct short prediction: actual 0 queue.
	tr.Record(2, 0.1, 0, false)
	tr.Resolve(2, 2000, 2000)
	// Miss: predicted short, actually queued 50 min.
	tr.Record(3, 0.2, 0, false)
	tr.Resolve(3, 3000, 3000+50*60)

	st := tr.Stats()
	if st.Joined != 3 || st.Window != 3 || st.Unmatched != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := st.HitRate, 2.0/3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("hit rate = %v, want %v", got, want)
	}
	if st.RegressionObbs != 1 || st.MAEMinutes != 10 {
		t.Errorf("regression stats = %+v", st)
	}
	// |30-20|/20 = 0.5 → 50%.
	if st.MAPE < 49.9 || st.MAPE > 50.1 {
		t.Errorf("MAPE = %v", st.MAPE)
	}
	// mean prob (0.9+0.1+0.2)/3 = 0.4; long fraction 2/3.
	drift := 0.4 - 2.0/3.0
	if st.CalibrationDrift < drift-1e-9 || st.CalibrationDrift > drift+1e-9 {
		t.Errorf("calibration drift = %v, want %v", st.CalibrationDrift, drift)
	}

	// Negative queue clamps to zero.
	tr.Record(4, 0.5, 5, true)
	tr.Resolve(4, 5000, 4000)
	if st := tr.Stats(); st.Window != 4 {
		t.Fatalf("window = %d", st.Window)
	}
}

func TestAccuracyTrackerEviction(t *testing.T) {
	tr := NewAccuracyTracker(10, 3, 8)
	for id := 1; id <= 5; id++ {
		tr.Record(id, 0.5, 1, true)
	}
	st := tr.Stats()
	if st.Pending != 3 {
		t.Errorf("pending = %d, want 3 (cap)", st.Pending)
	}
	if st.Evicted != 2 {
		t.Errorf("evicted = %d, want 2", st.Evicted)
	}
	// Oldest two were dropped; newest three still resolvable.
	if tr.Resolve(1, 0, 60) || tr.Resolve(2, 0, 60) {
		t.Error("evicted jobs should not resolve")
	}
	for id := 3; id <= 5; id++ {
		if !tr.Resolve(id, 0, 60) {
			t.Errorf("job %d should resolve", id)
		}
	}
}

func TestAccuracyTrackerWindowWrap(t *testing.T) {
	tr := NewAccuracyTracker(10, 0, 4)
	for id := 1; id <= 10; id++ {
		tr.Record(id, 1.0, 20, true)
		tr.Resolve(id, 0, 20*60) // perfect predictions
	}
	st := tr.Stats()
	if st.Window != 4 || st.Joined != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate != 1 || st.MAEMinutes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAccuracyTrackerReset: after a reset the window and the pending
// answers are gone, so a start for an answer recorded before it is
// unmatched, while Joined keeps counting.
func TestAccuracyTrackerReset(t *testing.T) {
	tr := NewAccuracyTracker(10, 0, 8)
	for id := 1; id <= 3; id++ {
		tr.Record(id, 0.9, 30, true)
	}
	tr.Resolve(1, 0, 30*60)
	tr.Reset()
	if st := tr.Stats(); st.Joined != 1 || st.Window != 0 || st.Pending != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if tr.Resolve(2, 0, 60) {
		t.Error("an answer recorded before the reset resolved")
	}
	tr.Record(4, 0.9, 30, true)
	tr.Record(2, 0.9, 30, true)
	tr.Resolve(4, 0, 130*60)
	tr.Resolve(2, 0, 130*60)
	st := tr.Stats()
	if st.Joined != 3 || st.Window != 2 || st.Unmatched != 1 || st.MAEMinutes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccuracyTrackerNilAndIgnored(t *testing.T) {
	var tr *AccuracyTracker
	tr.Record(1, 0.5, 1, true)
	tr.Reset()
	if tr.Resolve(1, 0, 0) {
		t.Error("nil tracker resolve = true")
	}
	if st := tr.Stats(); st.Window != 0 {
		t.Errorf("nil tracker stats = %+v", st)
	}
	real := NewAccuracyTracker(10, 4, 4)
	real.Record(0, 0.5, 1, true)  // hypothetical job, no ID
	real.Record(-7, 0.5, 1, true) // invalid
	if st := real.Stats(); st.Pending != 0 {
		t.Errorf("pending = %d, want 0", st.Pending)
	}
}

func TestAccuracyTrackerRegister(t *testing.T) {
	r := NewRegistry()
	tr := NewAccuracyTracker(10, 0, 0)
	tr.Register(r)
	tr.Record(1, 0.8, 15, true)
	tr.Resolve(1, 0, 15*60)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"trout_online_joined_total 1",
		"trout_online_hit_rate 1",
		"trout_online_mae_minutes 0",
		"trout_online_window_size 1",
		"trout_online_pending_predictions 0",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
}

func TestTrainTelemetry(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	logger, _ := NewLogger(&buf, "info", "json")
	tt := NewTrainTelemetry(r, logger)

	tt.ObserveEpoch("classifier", 3, 0.5, 1.2, 0.01)
	tt.ObserveEpoch("classifier", 4, 0.4, 1.1, 0.01)
	tt.ObserveRollback("regressor", 7, 1, 0.005)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		`trout_train_loss{head="classifier"} 0.4`,
		`trout_train_epochs_total{head="classifier"} 2`,
		`trout_train_rollbacks_total{head="regressor"} 1`,
		`trout_train_grad_norm{head="classifier"} 1.1`,
		`trout_train_learning_rate{head="classifier"} 0.01`,
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
	if !strings.Contains(buf.String(), "train_epoch") || !strings.Contains(buf.String(), "train_rollback") {
		t.Errorf("log lines missing:\n%s", buf.String())
	}

	// Nil receiver is a no-op.
	var nilT *TrainTelemetry
	nilT.ObserveEpoch("x", 0, 0, 0, 0)
	nilT.ObserveRollback("x", 0, 0, 0)
}
