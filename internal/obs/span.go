package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Hierarchical request tracing. A TraceBuf accumulates the span tree of
// one trace (an HTTP request, a WAL sync, a retrain cycle) and is the
// only per-request recorder: pipeline code opens child spans under the
// handle it is given, and the stage histogram and the access log's spans
// group are read back from the tree's stage spans (IsStage) when the
// request finishes. The Tracer owns what happens to finished trees — the
// tail-sampling policy, the JSONL exporter and the flight recorder — so a
// request served without one still records its stages.

// ParentSpanHeader carries the caller's span ID across process
// boundaries (follower write-proxy → leader). The trace ID itself rides
// TraceIDHeader; this header only adds the parent linkage.
const ParentSpanHeader = "X-Trout-Parent-Span"

// maxTraceSpans bounds one trace's span count; further starts are
// counted in TraceBuf.dropped instead of growing without bound.
const maxTraceSpans = 64

// Attr is one key/value span attribute. Values are strings so the
// export schema stays trivial; use SpanHandle.SetAttrInt for numbers.
type Attr struct {
	Key string
	Val string
}

// SpanRec is one node of a trace's span tree. Parent 0 marks the root.
type SpanRec struct {
	ID        uint64
	Parent    uint64
	Name      string
	Start     int64 // unix nanoseconds
	End       int64 // unix nanoseconds; 0 while open
	Err       string
	LinkTrace string // optional link to a span in another trace
	LinkSpan  uint64
	Attrs     []Attr
}

// TraceBuf collects the spans of one trace; span 0 is the root. Finishing
// clones the spans it keeps, because the flight recorder and the exporter
// goroutine hold them after the request has returned; the buffer itself is
// never recycled. The mutex is uncontended on the request path and keeps a
// span handle that travels with a context to another goroutine safe.
// A nil *TraceBuf is inert: its root is the no-op handle.
type TraceBuf struct {
	mu      sync.Mutex
	traceID string
	spans   []SpanRec
	dropped int
	errored bool
}

// TraceID returns the trace's ID.
func (tb *TraceBuf) TraceID() string {
	if tb == nil {
		return ""
	}
	return tb.traceID
}

// Root returns the handle of the trace's root span (the no-op handle on a
// nil buffer), the parent pipeline code opens its spans under.
func (tb *TraceBuf) Root() SpanHandle {
	if tb == nil {
		return SpanHandle{}
	}
	return SpanHandle{tb: tb}
}

// stageTimings are a finished request's closed stage spans in start order:
// what the stage histogram observes and the access log prints.
type stageTimings []stageTiming

type stageTiming struct {
	stage   string
	seconds float64
}

func (tb *TraceBuf) stages() stageTimings {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make(stageTimings, 0, len(tb.spans))
	for i := range tb.spans {
		if s := &tb.spans[i]; s.End != 0 && IsStage(s.Name) {
			out = append(out, stageTiming{s.Name, float64(s.End-s.Start) / 1e9})
		}
	}
	return out
}

// LogValue renders the stages as a structured log group: one member per
// stage span, seconds as the value.
func (st stageTimings) LogValue() slog.Value {
	attrs := make([]slog.Attr, len(st))
	for i, s := range st {
		attrs[i] = slog.Float64(s.stage, s.seconds)
	}
	return slog.GroupValue(attrs...)
}

// snapshot clones the recorded spans (open spans are closed at now so
// exported trees are always well-formed intervals).
func (tb *TraceBuf) snapshot(now int64) []SpanRec {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	out := make([]SpanRec, len(tb.spans))
	copy(out, tb.spans)
	for i := range out {
		if out[i].End == 0 {
			out[i].End = now
		}
	}
	return out
}

// start appends a span opened at `at` under the span at index parent
// (-1 opens the root).
func (tb *TraceBuf) start(parent int, name string, at time.Time) SpanHandle {
	tb.mu.Lock()
	if len(tb.spans) >= maxTraceSpans {
		tb.dropped++
		tb.mu.Unlock()
		return SpanHandle{}
	}
	var parentID uint64
	if parent >= 0 {
		parentID = tb.spans[parent].ID
	}
	idx := len(tb.spans)
	tb.spans = append(tb.spans, SpanRec{
		ID: nextSpanID(), Parent: parentID, Name: name, Start: at.UnixNano(),
	})
	tb.mu.Unlock()
	return SpanHandle{tb: tb, idx: idx}
}

// SpanHandle mutates one span inside a TraceBuf. The zero value is a
// valid no-op handle that records nothing and reads no clock, so timed
// code takes a parent handle unconditionally and untraced callers pass
// SpanHandle{}.
type SpanHandle struct {
	tb  *TraceBuf
	idx int
}

// ID returns the span's ID (0 for a no-op handle).
func (h SpanHandle) ID() uint64 {
	if h.tb == nil {
		return 0
	}
	h.tb.mu.Lock()
	defer h.tb.mu.Unlock()
	return h.tb.spans[h.idx].ID
}

// End closes the span at now.
func (h SpanHandle) End() {
	if h.tb == nil {
		return
	}
	now := time.Now().UnixNano()
	h.tb.mu.Lock()
	if h.tb.spans[h.idx].End == 0 {
		h.tb.spans[h.idx].End = now
	}
	h.tb.mu.Unlock()
}

// EndErr closes the span; a non-nil err marks the span (and the whole
// trace) errored, which forces tail-keeping.
func (h SpanHandle) EndErr(err error) {
	if err != nil {
		h.SetError(err.Error())
	}
	h.End()
}

// SetError marks the span and its trace errored.
func (h SpanHandle) SetError(msg string) {
	if h.tb == nil {
		return
	}
	h.tb.mu.Lock()
	h.tb.spans[h.idx].Err = msg
	h.tb.errored = true
	h.tb.mu.Unlock()
}

// SetAttr attaches a key/value attribute to the span.
func (h SpanHandle) SetAttr(key, val string) {
	if h.tb == nil {
		return
	}
	h.tb.mu.Lock()
	if h.tb.spans[h.idx].Attrs == nil {
		// Root spans carry 3-4 attrs (remote/status/bytes[/reason]);
		// pre-sizing turns the append ladder into one allocation.
		h.tb.spans[h.idx].Attrs = make([]Attr, 0, 4)
	}
	h.tb.spans[h.idx].Attrs = append(h.tb.spans[h.idx].Attrs, Attr{Key: key, Val: val})
	h.tb.mu.Unlock()
}

// SetAttrInt attaches an integer attribute to the span.
func (h SpanHandle) SetAttrInt(key string, val int64) {
	if h.tb == nil {
		return
	}
	h.SetAttr(key, strconv.FormatInt(val, 10))
}

// Link records a pointer from this span to a span in another trace
// (e.g. a proxied write linking to the forwarding node's span). Links are
// cross-trace by design and are not checked for in-trace resolution.
func (h SpanHandle) Link(traceID string, span uint64) {
	if h.tb == nil {
		return
	}
	h.tb.mu.Lock()
	h.tb.spans[h.idx].LinkTrace = traceID
	h.tb.spans[h.idx].LinkSpan = span
	h.tb.mu.Unlock()
}

// StartChild opens a child span under this span.
func (h SpanHandle) StartChild(name string) SpanHandle {
	if h.tb == nil {
		return SpanHandle{}
	}
	return h.tb.start(h.idx, name, time.Now())
}

// --- span IDs ---------------------------------------------------------

// spanSeq is seeded once from crypto/rand; per-span IDs then come from a
// multiplicative hash of an atomic counter — well-distributed 64-bit IDs
// without a rand syscall on the hot path.
var spanSeq atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		spanSeq.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

func nextSpanID() uint64 {
	for {
		if id := spanSeq.Add(1) * 0x9E3779B97F4A7C15; id != 0 {
			return id
		}
	}
}

// FormatSpanID renders a span ID as 16 lowercase hex chars.
func FormatSpanID(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// ParseSpanID parses a 16-hex-char span ID; 0 means absent/malformed.
func ParseSpanID(s string) uint64 {
	if len(s) != 16 {
		return 0
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b[:])
}

// --- tracer -----------------------------------------------------------

// TracerConfig shapes the tracer. The zero value is a live tracer with
// production defaults: 1% head sampling, 250ms slow threshold, flight
// recorder on, no file export (set Path to enable the JSONL exporter).
type TracerConfig struct {
	// Disabled turns the whole tracer off; every Start returns no-op
	// handles and nothing is recorded.
	Disabled bool
	// SampleRate is the head-sampling fraction of traces exported even
	// when fast and successful. 0 means the 0.01 default; negative
	// disables head sampling (slow/errored traces still export).
	SampleRate float64
	// SlowThreshold tail-keeps any trace at least this slow. 0 means
	// 250ms.
	SlowThreshold time.Duration
	// Path is the JSONL export file ("" disables file export).
	Path string
	// MaxFileBytes rotates the export file past this size (0 = 64 MiB).
	MaxFileBytes int64
	// MaxFiles keeps this many rotated files, current included (0 = 4).
	MaxFiles int
	// QueueLen bounds the export queue; overflow drops the trace and
	// bumps trout_trace_export_dropped_total (0 = 256).
	QueueLen int
	// FlightSlots sizes each flight-recorder ring — N slowest and N most
	// recent errored requests (0 = 32).
	FlightSlots int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.SampleRate == 0 {
		c.SampleRate = 0.01
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.MaxFileBytes == 0 {
		c.MaxFileBytes = 64 << 20
	}
	if c.MaxFiles == 0 {
		c.MaxFiles = 4
	}
	if c.QueueLen == 0 {
		c.QueueLen = 256
	}
	if c.FlightSlots == 0 {
		c.FlightSlots = 32
	}
	return c
}

// TracerStats is a point-in-time view of tracer activity for /metrics.
type TracerStats struct {
	Started       uint64 // traces begun
	KeptHead      uint64 // exported by head sampling
	KeptSlow      uint64 // exported because over the slow threshold
	KeptError     uint64 // exported because errored
	Exported      uint64 // JSONL lines written
	ExportDropped uint64 // traces lost to a full queue or write errors
	SpanDropped   uint64 // spans lost to the per-trace cap
}

// Tracer owns trace lifecycle: buffers, tail-sampling policy, the JSONL
// exporter and the flight recorder. A nil *Tracer is fully inert — every
// method is safe and returns no-op handles — so call sites can wire it
// unconditionally.
type Tracer struct {
	cfg       TracerConfig
	headEvery uint64 // export every Nth trace; 0 = head sampling off
	headSeq   atomic.Uint64
	exp       *exporter
	rec       *Recorder

	started     atomic.Uint64
	keptHead    atomic.Uint64
	keptSlow    atomic.Uint64
	keptErr     atomic.Uint64
	spanDropped atomic.Uint64
}

// NewTracer builds a tracer. Only a Path that cannot be opened errors;
// with Disabled set it returns (nil, nil) so wiring stays uniform.
func NewTracer(cfg TracerConfig) (*Tracer, error) {
	if cfg.Disabled {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg, rec: newRecorder(cfg.FlightSlots)}
	switch {
	case cfg.SampleRate < 0:
		t.headEvery = 0
	case cfg.SampleRate >= 1:
		t.headEvery = 1
	default:
		t.headEvery = uint64(1/cfg.SampleRate + 0.5)
	}
	if cfg.Path != "" {
		exp, err := newExporter(cfg.Path, cfg.MaxFileBytes, cfg.MaxFiles, cfg.QueueLen)
		if err != nil {
			return nil, err
		}
		t.exp = exp
	}
	return t, nil
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Recorder returns the flight recorder (nil on a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// SlowThreshold returns the tail-keep latency bound.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowThreshold
}

// newTrace opens a trace buffer rooted at `name`. On its own (no tracer)
// it records spans and stage timings but is never sampled, exported or
// offered to the flight recorder.
func newTrace(traceID, name string, at time.Time) (*TraceBuf, SpanHandle) {
	tb := &TraceBuf{traceID: traceID, spans: make([]SpanRec, 0, 12)}
	return tb, tb.start(-1, name, at)
}

// StartTrace opens a trace rooted at `name` with the given trace ID and
// start instant. A non-zero remoteParent (a span in the same trace on
// the calling node) is recorded as a link on the root span, keeping the
// in-file parent graph self-contained.
func (t *Tracer) StartTrace(traceID, name string, at time.Time, remoteParent uint64) (*TraceBuf, SpanHandle) {
	if t == nil {
		return nil, SpanHandle{}
	}
	t.started.Add(1)
	tb, root := newTrace(traceID, name, at)
	if remoteParent != 0 {
		root.Link(traceID, remoteParent)
	}
	return tb, root
}

// StartRoot opens a background trace (WAL sync, checkpoint, retrain,
// resnapshot) with a fresh trace ID.
func (t *Tracer) StartRoot(name string) (*TraceBuf, SpanHandle) {
	if t == nil {
		return nil, SpanHandle{}
	}
	tb, root := t.StartTrace(NewTraceID(), name, time.Now(), 0)
	return tb, root
}

// keep applies the tail-sampling policy and returns whether to export,
// counting the (first applicable) reason.
func (t *Tracer) keep(dur time.Duration, errored bool) bool {
	switch {
	case errored:
		t.keptErr.Add(1)
	case dur >= t.cfg.SlowThreshold:
		t.keptSlow.Add(1)
	case t.headEvery > 0 && t.headSeq.Add(1)%t.headEvery == 0:
		t.keptHead.Add(1)
	default:
		return false
	}
	return true
}

// FinishRequest ends an HTTP trace: closes the root span, offers the
// trace to the flight recorder, and exports it when tail-sampling keeps
// it. The keep-nothing path does not allocate beyond the buffer already
// held.
func (t *Tracer) FinishRequest(tb *TraceBuf, root SpanHandle, name string, status int, dur time.Duration) {
	if t == nil || tb == nil {
		return
	}
	errored := status >= 500
	if errored {
		root.SetError("HTTP " + strconv.Itoa(status))
	}
	root.End()
	tb.mu.Lock()
	errored = errored || tb.errored
	t.spanDropped.Add(uint64(tb.dropped))
	tb.dropped = 0
	tb.mu.Unlock()
	t.rec.Offer(tb, name, status, dur, errored)
	if t.keep(dur, errored) && t.exp != nil {
		t.exp.enqueue(tb)
	}
}

// FinishRoot ends a background trace opened with StartRoot. A non-nil
// err marks it errored (always kept); duration comes from the root span.
func (t *Tracer) FinishRoot(tb *TraceBuf, root SpanHandle, err error) {
	if t == nil || tb == nil {
		return
	}
	root.EndErr(err)
	tb.mu.Lock()
	errored := tb.errored
	var dur time.Duration
	if len(tb.spans) > 0 {
		dur = time.Duration(tb.spans[0].End - tb.spans[0].Start)
	}
	t.spanDropped.Add(uint64(tb.dropped))
	tb.dropped = 0
	tb.mu.Unlock()
	if t.keep(dur, errored) && t.exp != nil {
		t.exp.enqueue(tb)
	}
}

// Flush blocks until every enqueued trace has been written to the
// export file. No-op without a file exporter.
func (t *Tracer) Flush() {
	if t != nil && t.exp != nil {
		t.exp.flush()
	}
}

// Close flushes and stops the exporter. Safe on nil and safe to call
// more than once.
func (t *Tracer) Close() error {
	if t == nil || t.exp == nil {
		return nil
	}
	return t.exp.close()
}

// Stats snapshots tracer activity counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	st := TracerStats{
		Started:     t.started.Load(),
		KeptHead:    t.keptHead.Load(),
		KeptSlow:    t.keptSlow.Load(),
		KeptError:   t.keptErr.Load(),
		SpanDropped: t.spanDropped.Load(),
	}
	if t.exp != nil {
		st.Exported = t.exp.exported.Load()
		st.ExportDropped = t.exp.dropped.Load()
	}
	return st
}

// Register exposes tracer activity as trout_trace_* counters.
func (t *Tracer) Register(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("trout_trace_started_total",
		"Traces begun (requests plus background roots).",
		func() float64 { return float64(t.started.Load()) })
	r.CounterVecFunc("trout_trace_kept_total",
		"Traces kept by tail sampling, by reason.",
		[]string{"reason"}, func(emit Emit) {
			emit(float64(t.keptErr.Load()), "error")
			emit(float64(t.keptSlow.Load()), "slow")
			emit(float64(t.keptHead.Load()), "head")
		})
	r.CounterFunc("trout_trace_exported_total",
		"Trace lines written to the JSONL export file.",
		func() float64 { return float64(t.Stats().Exported) })
	r.CounterFunc("trout_trace_export_dropped_total",
		"Kept traces lost to a full export queue or write errors.",
		func() float64 { return float64(t.Stats().ExportDropped) })
	r.CounterFunc("trout_trace_spans_dropped_total",
		"Spans dropped by the per-trace span cap.",
		func() float64 { return float64(t.spanDropped.Load()) })
	t.rec.register(r)
}

// --- context plumbing -------------------------------------------------

// traceKey is the context key Instrument stores the request's trace
// buffer under.
type traceKey struct{}

// TraceFrom returns the request's trace buffer, or nil outside an
// instrumented request (a nil buffer's TraceID is "" and its Root the
// no-op handle, so callers never check).
func TraceFrom(ctx context.Context) *TraceBuf {
	tb, _ := ctx.Value(traceKey{}).(*TraceBuf)
	return tb
}
