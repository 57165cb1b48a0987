package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSpanIDFormatParse(t *testing.T) {
	id := nextSpanID()
	if id == 0 {
		t.Fatal("span ID 0")
	}
	s := FormatSpanID(id)
	if len(s) != 16 || s != strings.ToLower(s) {
		t.Fatalf("formatted span ID %q", s)
	}
	if got := ParseSpanID(s); got != id {
		t.Fatalf("roundtrip %q: got %x want %x", s, got, id)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("g", 16), strings.Repeat("a", 15)} {
		if ParseSpanID(bad) != 0 {
			t.Errorf("ParseSpanID(%q) should be 0", bad)
		}
	}
	if a, b := nextSpanID(), nextSpanID(); a == b {
		t.Error("consecutive span IDs collided")
	}
}

func TestTraceTreeStructure(t *testing.T) {
	tr, err := NewTracer(TracerConfig{SampleRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	tb, root := tr.StartTrace("trace-1", "GET /x", time.Now(), 0)
	child := root.StartChild("step")
	child.SetAttr("k", "v")
	child.End()

	tb.Root().StartChild(StageSnapshot).End()

	grand := child.StartChild("substep")
	grand.EndErr(errors.New("boom"))
	root.End()

	spans := tb.snapshot(time.Now().UnixNano())
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Parent != 0 || spans[0].Name != "GET /x" {
		t.Errorf("root = %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[1].Attrs[0] != (Attr{"k", "v"}) {
		t.Errorf("child = %+v", spans[1])
	}
	if spans[2].Parent != spans[0].ID || spans[2].Name != StageSnapshot {
		t.Errorf("stage span = %+v", spans[2])
	}
	if spans[3].Parent != spans[1].ID || spans[3].Err != "boom" {
		t.Errorf("grandchild = %+v", spans[3])
	}
	if !tb.errored {
		t.Error("EndErr did not mark the trace errored")
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d inverted interval: %+v", i, s)
		}
		if s.Parent != 0 && (s.Start < spans[0].Start || s.End > spans[0].End) {
			t.Errorf("span %d escapes root interval", i)
		}
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	tb, root := tr.StartTrace("x", "y", time.Now(), 0)
	if tb != nil || root.ID() != 0 {
		t.Fatal("nil tracer produced a trace")
	}
	root.SetAttr("a", "b")
	root.End()
	tr.FinishRequest(tb, root, "y", 200, time.Millisecond)
	tr.FinishRoot(tb, root, nil)
	tr.Flush()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if h := TraceFrom(context.Background()).Root().StartChild("z"); h.ID() != 0 {
		t.Fatal("a span opened outside a trace should be a no-op")
	}
	// Disabled config yields a nil tracer.
	if d, err := NewTracer(TracerConfig{Disabled: true}); err != nil || d != nil {
		t.Fatalf("disabled tracer = %v, %v", d, err)
	}
}

func TestSpanCap(t *testing.T) {
	tr, _ := NewTracer(TracerConfig{SampleRate: -1})
	tb, root := tr.StartTrace("t", "root", time.Now(), 0)
	for i := 0; i < maxTraceSpans+10; i++ {
		root.StartChild("c").End()
	}
	tb.mu.Lock()
	n, dropped := len(tb.spans), tb.dropped
	tb.mu.Unlock()
	if n != maxTraceSpans {
		t.Errorf("span count %d, want cap %d", n, maxTraceSpans)
	}
	if dropped != 11 {
		t.Errorf("dropped = %d, want 11", dropped)
	}
	tr.FinishRequest(tb, root, "root", 200, 0)
	if st := tr.Stats(); st.SpanDropped != 11 {
		t.Errorf("SpanDropped = %d", st.SpanDropped)
	}
}

// TestRecycledBufferHandlesInert: once a buffer is released, every handle
// issued on it records nothing into the buffer's next trace, and what the
// flight recorder kept of the first trace is unchanged.
func TestRecycledBufferHandlesInert(t *testing.T) {
	tr, _ := NewTracer(TracerConfig{SampleRate: -1, FlightSlots: 2})
	tb, root := tr.StartTrace("first", "a", time.Now(), 0)
	root.SetAttr("k", "v")
	child := root.StartChild(StageClassify)
	child.End()
	tr.FinishRequest(tb, root, "a", 200, time.Second) // kept: slow set not full
	releaseTrace(tb)

	root2 := tb.open("second", "b", time.Now())
	root.SetAttr("stale", "x")
	root.StartChild("stale").End()
	child.SetError("stale")
	root.Link("other", 1)
	root.End()
	if root.ID() != 0 || child.ID() != 0 {
		t.Error("a stale handle reports a span ID")
	}
	if root2.ID() == 0 || tb.TraceID() != "second" {
		t.Fatal("the reopened buffer has no live root")
	}
	spans := tb.snapshot(0)
	if len(spans) != 1 || spans[0].Name != "b" || spans[0].End != 0 || spans[0].Attrs != nil ||
		spans[0].Err != "" || spans[0].LinkTrace != "" || tb.errored {
		t.Fatalf("stale handles wrote into the next trace: %+v errored=%v", spans, tb.errored)
	}

	kept := tr.Recorder().Snapshot().Slowest
	if len(kept) != 1 || kept[0].TraceID != "first" || len(kept[0].Spans) != 2 ||
		kept[0].Spans[0].Attrs["k"] != "v" || kept[0].Spans[1].Name != StageClassify {
		t.Fatalf("recorded trace changed after its buffer was recycled: %+v", kept)
	}
}

// readTraceLines parses every JSONL line of the export file.
func readTraceLines(t *testing.T, path string) []TraceJSON {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []TraceJSON
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line TraceJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line: %v\n%s", err, sc.Text())
		}
		out = append(out, line)
	}
	return out
}

func TestTailSamplingAndExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	tr, err := NewTracer(TracerConfig{
		SampleRate:    -1, // no head sampling: only slow + errored survive
		SlowThreshold: 50 * time.Millisecond,
		Path:          path,
	})
	if err != nil {
		t.Fatal(err)
	}
	finish := func(name string, status int, dur time.Duration) {
		tb, root := tr.StartTrace(NewTraceID(), name, time.Now(), 0)
		tr.FinishRequest(tb, root, name, status, dur)
	}
	finish("fast-ok", 200, time.Millisecond)     // dropped
	finish("slow", 200, 80*time.Millisecond)     // kept: slow
	finish("errored", 503, 2*time.Millisecond)   // kept: error
	finish("fast-ok-2", 200, 2*time.Millisecond) // dropped
	tr.Flush()

	lines := readTraceLines(t, path)
	if len(lines) != 2 {
		t.Fatalf("exported %d traces, want 2: %+v", len(lines), lines)
	}
	if lines[0].Root != "slow" || lines[1].Root != "errored" {
		t.Errorf("exported roots = %q, %q", lines[0].Root, lines[1].Root)
	}
	if lines[1].Spans[0].Error == "" {
		t.Error("errored trace root has no error")
	}
	st := tr.Stats()
	if st.KeptSlow != 1 || st.KeptError != 1 || st.KeptHead != 0 || st.Exported != 2 {
		t.Errorf("stats = %+v", st)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeadSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	tr, err := NewTracer(TracerConfig{SampleRate: 0.25, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tb, root := tr.StartTrace(NewTraceID(), "r", time.Now(), 0)
		tr.FinishRequest(tb, root, "r", 200, time.Millisecond)
	}
	tr.Flush()
	if st := tr.Stats(); st.KeptHead != 25 {
		t.Errorf("head-kept %d of 100 at rate 0.25", st.KeptHead)
	}
	tr.Close()
}

// TestExportQueueOverflow: a kept trace that finds the bounded export
// queue full is dropped and counted on trout_trace_export_dropped_total,
// never waited for; every kept trace is either written or counted.
func TestExportQueueOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	tr, err := NewTracer(TracerConfig{SampleRate: 1, Path: path, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	kept := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for tr.Stats().ExportDropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d kept traces never overflowed a one-slot export queue", kept)
		}
		for range 256 {
			tb, root := tr.StartTrace(NewTraceID(), "r", time.Now(), 0)
			tr.FinishRequest(tb, root, "r", 200, time.Millisecond)
			kept++
		}
	}
	tr.Flush()
	st := tr.Stats()
	if st.Exported+st.ExportDropped != kept || uint64(len(readTraceLines(t, path))) != st.Exported {
		t.Fatalf("%d kept traces: %d exported + %d dropped", kept, st.Exported, st.ExportDropped)
	}
	r := NewRegistry()
	tr.Register(r)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("trout_trace_export_dropped_total %d\n", st.ExportDropped); !strings.Contains(b.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, grepLine(b.String(), "trout_trace_export_dropped_total"))
	}
}

func TestExporterRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	tr, err := NewTracer(TracerConfig{
		SampleRate: 1, Path: path, MaxFileBytes: 2048, MaxFiles: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		tb, root := tr.StartTrace(NewTraceID(), "rotate-me", time.Now(), 0)
		root.SetAttr("pad", strings.Repeat("x", 64))
		tr.FinishRequest(tb, root, "rotate-me", 200, time.Millisecond)
	}
	tr.Flush()
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatalf("current file missing after rotation: %v", err)
	}
	if st1.Size() > 4096 {
		t.Errorf("current file %d bytes despite 2048 rotation bound", st1.Size())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("rotated file missing: %v", err)
	}
	if _, err := os.Stat(path + ".2"); err == nil {
		t.Error("MaxFiles=2 should not produce a .2 file")
	}
	// Every surviving line still parses.
	readTraceLines(t, path)
	readTraceLines(t, path+".1")
	tr.Close()
}

func TestRecorderSlowAndErrored(t *testing.T) {
	tr, _ := NewTracer(TracerConfig{SampleRate: -1, FlightSlots: 3})
	rec := tr.Recorder()
	offer := func(name string, status int, dur time.Duration) {
		tb, root := tr.StartTrace("id-"+name, name, time.Now(), 0)
		tr.FinishRequest(tb, root, name, status, dur)
	}
	for i, d := range []time.Duration{5, 9, 2, 7, 1, 8} {
		offer(string(rune('a'+i)), 200, d*time.Millisecond)
	}
	offer("e1", 500, time.Millisecond)
	offer("e2", 502, time.Millisecond)

	snap := rec.Snapshot()
	if len(snap.Slowest) != 3 {
		t.Fatalf("slowest len %d, want 3", len(snap.Slowest))
	}
	// 9ms, 8ms, 7ms survive, descending.
	if snap.Slowest[0].Name != "b" || snap.Slowest[1].Name != "f" || snap.Slowest[2].Name != "d" {
		t.Errorf("slowest = %q %q %q", snap.Slowest[0].Name, snap.Slowest[1].Name, snap.Slowest[2].Name)
	}
	if len(snap.Errored) != 2 || snap.Errored[0].Name != "e2" || snap.Errored[1].Name != "e1" {
		t.Errorf("errored = %+v", snap.Errored)
	}
	if snap.Errored[0].Status != 502 {
		t.Errorf("errored status = %d", snap.Errored[0].Status)
	}
	if snap.Slowest[0].TraceID != "id-b" || len(snap.Slowest[0].Spans) == 0 {
		t.Errorf("slowest[0] = %+v", snap.Slowest[0])
	}
}

func TestRecorderErroredRingWraps(t *testing.T) {
	tr, _ := NewTracer(TracerConfig{SampleRate: -1, FlightSlots: 2})
	for i := 0; i < 5; i++ {
		tb, root := tr.StartTrace(NewTraceID(), string(rune('a'+i)), time.Now(), 0)
		tr.FinishRequest(tb, root, string(rune('a'+i)), 500, time.Duration(i+1)*time.Millisecond)
	}
	snap := tr.Recorder().Snapshot()
	if len(snap.Errored) != 2 || snap.Errored[0].Name != "e" || snap.Errored[1].Name != "d" {
		t.Errorf("errored ring = %+v", snap.Errored)
	}
}

func TestRecorderKeepNothingAllocFree(t *testing.T) {
	tr, _ := NewTracer(TracerConfig{SampleRate: -1, FlightSlots: 2})
	rec := tr.Recorder()
	// Warm the slow set past its floor.
	for i := 0; i < 3; i++ {
		tb, root := tr.StartTrace(NewTraceID(), "warm", time.Now(), 0)
		tr.FinishRequest(tb, root, "warm", 200, time.Second)
	}
	tb, _ := tr.StartTrace(NewTraceID(), "fast", time.Now(), 0)
	if n := testing.AllocsPerRun(100, func() {
		rec.Offer(tb, "fast", 200, time.Microsecond, false)
	}); n != 0 {
		t.Errorf("keep-nothing Offer allocates %v times", n)
	}
}

func TestSLOTracker(t *testing.T) {
	slo := NewSLOTracker(SLOConfig{
		AvailabilityTarget: 0.999,
		LatencyTarget:      0.99,
		LatencyThreshold:   100 * time.Millisecond,
	})
	now := time.Unix(1_000_000, 0)
	slo.now = func() time.Time { return now }

	for i := 0; i < 100; i++ {
		slo.Observe(200, time.Millisecond)
	}
	st := slo.Status()
	if st.Status != "ok" {
		t.Fatalf("clean traffic status %q", st.Status)
	}
	for _, w := range st.Windows {
		if w.Requests != 100 || w.AvailabilityBurn != 0 || w.LatencyBurn != 0 {
			t.Errorf("window %s = %+v", w.Window, w)
		}
	}

	// 10% errors: burn = 0.10 / 0.001 = 100x across every window → page.
	for i := 0; i < 12; i++ {
		slo.Observe(500, time.Millisecond)
	}
	st = slo.Status()
	if st.Status != "page" {
		t.Errorf("status %q after 10%% errors, want page", st.Status)
	}
	if b := st.Windows[0].AvailabilityBurn; b < 50 || b > 200 {
		t.Errorf("availability burn = %v", b)
	}

	// Slow requests trip the latency objective independently.
	slo2 := NewSLOTracker(SLOConfig{LatencyThreshold: 10 * time.Millisecond})
	slo2.now = func() time.Time { return now }
	for i := 0; i < 50; i++ {
		slo2.Observe(200, time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		slo2.Observe(200, 20*time.Millisecond)
	}
	if st := slo2.Status(); st.Status != "page" || st.Windows[0].LatencyBurn < 10 {
		t.Errorf("latency objective: %+v", st)
	}

	// Counts age out of the 5m window but stay in 6h.
	now = now.Add(10 * time.Minute)
	st = slo2.Status()
	if st.Windows[0].Requests != 0 {
		t.Errorf("5m window still holds %d requests after 10m", st.Windows[0].Requests)
	}
	if st.Windows[3].Requests != 100 {
		t.Errorf("6h window holds %d requests, want 100", st.Windows[3].Requests)
	}
	if st.Status == "page" {
		t.Error("page state should clear once the short window drains")
	}

	// Nil tracker is inert.
	var nilSLO *SLOTracker
	nilSLO.Observe(500, time.Hour)
	if st := nilSLO.Status(); st.Status != "ok" {
		t.Errorf("nil tracker status %q", st.Status)
	}
	if NewSLOTracker(SLOConfig{Disabled: true}) != nil {
		t.Error("disabled SLO config should yield nil")
	}
}

func TestSLORegister(t *testing.T) {
	r := NewRegistry()
	slo := NewSLOTracker(SLOConfig{})
	slo.Observe(200, time.Millisecond)
	slo.Register(r)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trout_slo_availability_target 0.999",
		"trout_slo_latency_target 0.99",
		"trout_slo_latency_threshold_seconds 0.5",
		`trout_slo_availability_burn_rate{window="5m"}`,
		`trout_slo_latency_burn_rate{window="6h"}`,
		"trout_slo_alert_state 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRuntimeRegister(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trout_runtime_goroutines",
		"trout_runtime_heap_bytes",
		"trout_runtime_gc_cycles_total",
		"trout_runtime_gc_pause_p99_seconds",
		"trout_runtime_sched_latency_p99_seconds",
		"trout_runtime_gomaxprocs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Live process invariants: at least one goroutine, some heap.
	if !regexpMatchGauge(out, "trout_runtime_goroutines") {
		t.Errorf("goroutines gauge not positive:\n%s", grepLine(out, "trout_runtime_goroutines"))
	}
	if !regexpMatchGauge(out, "trout_runtime_heap_bytes") {
		t.Errorf("heap gauge not positive:\n%s", grepLine(out, "trout_runtime_heap_bytes"))
	}
}

func regexpMatchGauge(exposition, name string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") {
			val := strings.TrimPrefix(line, name+" ")
			return val != "0" && !strings.HasPrefix(val, "-")
		}
	}
	return false
}

func grepLine(exposition, name string) string {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name) {
			return line
		}
	}
	return "(absent)"
}

func TestInstrumentWithTracer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	tr, err := NewTracer(TracerConfig{SampleRate: 1, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	slo := NewSLOTracker(SLOConfig{})
	var parentSeen string
	var rootSeen uint64
	h := Instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parentSeen = r.Header.Get(ParentSpanHeader)
		root := TraceFrom(r.Context()).Root()
		rootSeen = root.ID()
		sp := root.StartChild("inner")
		root.StartChild(StageSnapshot).End()
		sp.End()
		w.Write([]byte("ok"))
	}), HTTPOptions{Tracer: tr, SLO: slo})

	req := httptest.NewRequest("GET", "/predict", nil)
	req.Header.Set(TraceIDHeader, "traced-req-1")
	req.Header.Set(ParentSpanHeader, "00000000000000ff") // remote caller's span
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	tr.Flush()
	lines := readTraceLines(t, path)
	if len(lines) != 1 {
		t.Fatalf("exported %d traces, want 1", len(lines))
	}
	line := lines[0]
	if line.TraceID != "traced-req-1" {
		t.Errorf("trace ID %q", line.TraceID)
	}
	root := line.Spans[0]
	if root.ParentID != "" || root.Name != "GET /predict" {
		t.Errorf("root = %+v", root)
	}
	// Remote parent surfaces as a link on the root, same trace.
	if root.Link == nil || root.Link.SpanID != "00000000000000ff" || root.Link.TraceID != "traced-req-1" {
		t.Errorf("root link = %+v", root.Link)
	}
	if root.Attrs["status"] != "200" || root.Attrs["bytes"] != "2" || root.Attrs["remote"] == "" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	// The inbound header is left alone; a proxied hop takes its parent
	// from the context's root span (the follower's write proxy does).
	if parentSeen != "00000000000000ff" {
		t.Errorf("inbound parent header rewritten to %q", parentSeen)
	}
	if FormatSpanID(rootSeen) != root.SpanID {
		t.Errorf("context root span %x != exported root span %q", rootSeen, root.SpanID)
	}
	names := map[string]string{} // name -> parent
	for _, s := range line.Spans {
		names[s.Name] = s.ParentID
	}
	if names["inner"] != root.SpanID || names[StageSnapshot] != root.SpanID {
		t.Errorf("child spans mis-parented: %v", names)
	}
	// SLO saw the request.
	if st := slo.Status(); st.Windows[0].Requests != 1 {
		t.Errorf("slo requests = %+v", st.Windows[0])
	}
	// Flight recorder holds the same trace ID.
	snap := tr.Recorder().Snapshot()
	if len(snap.Slowest) != 1 || snap.Slowest[0].TraceID != "traced-req-1" {
		t.Errorf("recorder = %+v", snap.Slowest)
	}
	tr.Close()
}

func TestTracerRegister(t *testing.T) {
	r := NewRegistry()
	tr, _ := NewTracer(TracerConfig{SampleRate: -1})
	tb, root := tr.StartTrace(NewTraceID(), "x", time.Now(), 0)
	tr.FinishRequest(tb, root, "x", 500, time.Millisecond)
	tr.Register(r)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trout_trace_started_total 1",
		`trout_trace_kept_total{reason="error"} 1`,
		"trout_trace_exported_total 0",
		`trout_trace_recorded_total{ring="errored"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
