package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// slogAccessLine is the oracle: the line slog.NewJSONHandler writes for
// the record Instrument logs through LogAttrs.
func slogAccessLine(t testing.TB, at time.Time, r *accessRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := slog.NewRecord(at, slog.LevelInfo, "request", 0)
	rec.AddAttrs(r.attrs()...)
	if err := slog.NewJSONHandler(&buf, nil).Handle(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkAccessLine(t testing.TB, at time.Time, r *accessRecord) {
	t.Helper()
	want := slogAccessLine(t, at, r)
	if got := appendAccess(nil, at, r); !bytes.Equal(got, want) {
		t.Fatalf("access line differs from slog's\n got %s\nwant %s", got, want)
	}
}

func TestAccessLineMatchesSlog(t *testing.T) {
	at := time.Date(2026, 3, 4, 5, 6, 7, 890000000, time.FixedZone("", -(3*3600+30*60)))
	base := accessRecord{
		traceID: "0123456789abcdef", method: "POST", path: "/predict", remote: "10.0.0.1:5555",
		status: 200, seconds: 0.000151, bytes: 187,
		stages: stageTimings{{StageSnapshot, 2.1e-6}, {StageFeaturize, 5e-6}, {StageScale, 1e-7},
			{StageClassify, 0.0000012}, {StageScale, 3e-7}, {StageRegress, 0}},
	}
	strs := []string{"", "plain", `quote" back\ slash`, "ctl \x00\x01\x1f\x7f \t\n\r",
		"<html> & 'amp'", "bad utf8 \xff\xfe x\xc3", "sep \u2028 \u2029 end", "\u00fcn\u00ef \u20ac \U0001d11e", "\ufffd lit"}
	floats := []float64{0, 1e-9, 9.99e-7, 1e-6, 1e-7, 5e-324, 0.1, 1, 123.456, 1e20,
		999999999999999999999, 1e21, 1.5e21, 1e22, -2.5e-8, math.MaxFloat64}
	for _, s := range strs {
		r := base
		r.traceID, r.method, r.path, r.remote = s, s, s, s
		checkAccessLine(t, at, &r)
	}
	for _, f := range floats {
		r := base
		r.seconds = f
		r.stages = stageTimings{{StageFallback, f}}
		checkAccessLine(t, at, &r)
	}
	for _, st := range []stageTimings{nil, {}} {
		r := base
		r.stages = st
		checkAccessLine(t, at, &r)
	}
	r := base
	r.status, r.bytes = StatusAborted, -1
	checkAccessLine(t, at.UTC(), &r)
	checkAccessLine(t, time.Unix(0, 1), &r)
}

// FuzzAccessLine: for any record Instrument can log, the appended line
// is slog.NewJSONHandler's line for it, byte for byte.
func FuzzAccessLine(f *testing.F) {
	f.Add("0123456789abcdef", "GET", "/predict", "127.0.0.1:1", 200, int64(42), 1.5e-4, []byte{0, 1, 2, 3}, int64(1e18), int32(0))
	f.Add("x\"y", "P\xffST", "/a\u2028b", "", 599, int64(0), 1e-9, []byte{}, int64(-1), int32(-12600))
	f.Add("id", "GET", "/other", "[::1]:80", 404, int64(1<<40), 1e22, []byte{5, 4, 2, 2}, int64(0), int32(3600))
	f.Add("", "", "", "", 0, int64(-7), 1e21, []byte{1, 9, 17}, int64(math.MaxInt64), int32(59))
	f.Fuzz(func(t *testing.T, id, method, path, remote string, status int, n int64, secs float64, spans []byte, unixNano int64, zone int32) {
		if math.IsNaN(secs) || math.IsInf(secs, 0) {
			t.Skip("durations are finite")
		}
		r := accessRecord{traceID: id, method: method, path: path, remote: remote,
			status: status, seconds: secs, bytes: n}
		// Each span byte picks a stage; its seconds scale secs by a
		// power of ten, so stage values cross the 'e' thresholds too.
		for i, b := range spans {
			r.stages = append(r.stages, stageTiming{stageNames[int(b)%len(stageNames)],
				secs * math.Pow10(int(b>>3)-16+i%3)})
		}
		at := time.Unix(0, unixNano).In(time.FixedZone("", int(zone%86400)))
		checkAccessLine(t, at, &r)
	})
}

// instrumentedLines serves one request with five stage spans through
// Instrument with logger and returns what the logger wrote.
func instrumentedLines(t *testing.T, logger *slog.Logger, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		root := TraceFrom(r.Context()).Root()
		for _, s := range stageNames[:5] {
			root.StartChild(s).End()
		}
	}), HTTPOptions{Logger: logger})
	req := httptest.NewRequest("POST", "/predict", nil)
	req.Header.Set(TraceIDHeader, "line-check")
	h.ServeHTTP(httptest.NewRecorder(), req)
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// The appended line and slog's line have the same shape (keys, order,
// strings), and loggers NewLogger did not build (or derived with With)
// still log through slog.
func TestInstrumentAccessPaths(t *testing.T) {
	// Times and numbers differ run to run; everything else must not.
	numbers := regexp.MustCompile(`"time":"[^"]*"|-?[0-9][0-9.e+-]*`)
	var fast, plain, text bytes.Buffer
	fl, _ := NewLogger(&fast, "info", "json")
	instrumentedLines(t, fl, &fast)
	instrumentedLines(t, slog.New(slog.NewJSONHandler(&plain, nil)), &plain)
	if a, b := numbers.ReplaceAllString(fast.String(), "#"), numbers.ReplaceAllString(plain.String(), "#"); a != b {
		t.Errorf("appended line\n%s\nslog line\n%s", a, b)
	}
	got := instrumentedLines(t, fl.With("node", "f1"), &fast)
	if got[1]["node"] != "f1" || got[1]["spans"] == nil {
		t.Errorf("With-derived logger lost its attrs or spans: %v", got[1])
	}
	tl, _ := NewLogger(&text, "info", "text")
	h := Instrument(http.NotFoundHandler(), HTTPOptions{Logger: tl})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if !strings.Contains(text.String(), "msg=request") || !strings.Contains(text.String(), "status=404") {
		t.Errorf("text access line = %q", text.String())
	}
}

// Raising the level to warn drops the access log but keeps the
// diagnostics Logf reports.
func TestLogfSurvivesWarnLevel(t *testing.T) {
	var buf bytes.Buffer
	l, _ := NewLogger(&buf, "warn", "json")
	h := Instrument(http.NotFoundHandler(), HTTPOptions{Logger: l})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	Logf(l)("panic serving %s", "GET /x")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("want exactly the Logf line, got %q: %v", buf.String(), err)
	}
	if rec["msg"] != "panic serving GET /x" || rec["level"] != "WARN" {
		t.Errorf("Logf line = %v", rec)
	}
}

// unsafeSink fails the test if two writes overlap, as a sink that is
// not safe for concurrent use would interleave them.
type unsafeSink struct {
	t     *testing.T
	busy  sync.Mutex
	lines bytes.Buffer
}

func (s *unsafeSink) Write(p []byte) (int, error) {
	if !s.busy.TryLock() {
		s.t.Error("overlapping writes to the log sink")
		return len(p), nil
	}
	defer s.busy.Unlock()
	time.Sleep(10 * time.Microsecond)
	return s.lines.Write(p)
}

// Access lines and slog's own lines share one serialized writer.
func TestAccessLogSharedSink(t *testing.T) {
	sink := &unsafeSink{t: t}
	l, _ := NewLogger(sink, "info", "json")
	h := Instrument(http.NotFoundHandler(), HTTPOptions{Logger: l})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
				l.Info("other")
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(sink.lines.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("torn line %q", line)
		}
	}
}

// discardWriter is a ResponseWriter that keeps one header map, so the
// allocation count below is Instrument's own.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestInstrumentAllocs pins Instrument's allocations per request: JSON
// logger, default tracer, SLO and request metrics around a handler that
// opens five stage spans.
func TestInstrumentAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts")
	}
	reg := NewRegistry()
	logger, _ := NewLogger(io.Discard, "info", "json")
	tr, _ := NewTracer(TracerConfig{})
	for i := 0; i < 64; i++ { // fill the flight recorder's slow set
		tb, root := tr.StartTrace(NewTraceID(), "warm", time.Now(), 0)
		tr.FinishRequest(tb, root, "warm", 200, time.Second)
	}
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		root := TraceFrom(r.Context()).Root()
		for _, s := range stageNames[:5] {
			root.StartChild(s).End()
		}
		w.Write([]byte("{}"))
	}), HTTPOptions{
		Logger:       logger,
		Requests:     reg.CounterVec("t_requests_total", "R.", "path", "code"),
		Latency:      reg.Histogram("t_seconds", "L.", DefaultLatencyBuckets),
		StageLatency: reg.HistogramVec("t_stage_seconds", "S.", DefaultStageBuckets, "stage"),
		Tracer:       tr,
		SLO:          NewSLOTracker(SLOConfig{}),
	})
	req := httptest.NewRequest("POST", "/predict", nil)
	w := discardWriter{h: http.Header{}}
	const pin = 10 // 40 with slog writing the access record, 12 with no trace-buffer pool
	if n := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) }); n > pin {
		t.Errorf("Instrument allocates %v times per request, pinned at %d", n, pin)
	}
}
