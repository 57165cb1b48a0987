package obs

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// HTTPOptions wires the Instrument middleware to its sinks. Every field
// is optional: a nil logger disables access logging, nil metrics skip
// their updates — trace-ID propagation always runs.
type HTTPOptions struct {
	// Logger receives one structured access-log record per request
	// (msg "request": trace_id, method, path, status, duration, bytes,
	// remote and the request's pipeline spans).
	Logger *slog.Logger
	// Requests counts completed requests; labels {path, code}.
	Requests *CounterVec
	// Latency is the whole-request latency histogram (seconds).
	Latency *Histogram
	// StageLatency receives the request's stage spans; label {stage}.
	StageLatency *HistogramVec
	// PathFor maps a request to its metric/log path label (clamping
	// unknown paths bounds label cardinality). Nil uses the URL path.
	PathFor func(*http.Request) string
	// Tracer, when set, runs the tail-sampling/flight-recorder pipeline
	// over the request's span tree at completion. Without one the tree
	// still feeds StageLatency and the access log.
	Tracer *Tracer
	// SLO, when set, feeds the rolling burn-rate windows.
	SLO *SLOTracker
}

// StatusAborted is the status Instrument logs and counts, as a server
// error, for a request whose handler panicked (a reply aborted mid-body).
const StatusAborted = 599

// statusWriter captures the response status and byte count. Unwrap
// keeps http.ResponseController working through the wrap.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Instrument is the observability middleware: it establishes the
// request's trace ID (accepted from X-Request-ID when well-formed,
// generated otherwise), echoes it on the response, attaches the request's
// trace buffer (one root span; see TraceFrom) to the context, and on
// completion records request metrics, per-stage latency, SLO windows, the
// flight recorder / trace export, and a structured access-log line
// carrying the trace ID and the tree's stage spans.
//
// Cross-node continuity: a well-formed X-Trout-Parent-Span header links
// the root span to the caller's span (same trace ID, other node), and
// the header is rewritten to this request's root span ID so a reverse
// proxy hop forwards the linkage downstream.
func Instrument(next http.Handler, o HTTPOptions) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := SanitizeTraceID(r.Header.Get(TraceIDHeader))
		if id == "" {
			id = NewTraceID()
		}
		w.Header().Set(TraceIDHeader, id)

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()

		var tb *TraceBuf
		var root SpanHandle
		rootName := r.Method + " " + r.URL.Path
		if o.Tracer.Enabled() {
			remoteParent := ParseSpanID(r.Header.Get(ParentSpanHeader))
			tb, root = o.Tracer.StartTrace(id, rootName, start, remoteParent)
			root.SetAttr("remote", r.RemoteAddr)
			// Forward our root as the parent for any proxied hop.
			r.Header.Set(ParentSpanHeader, FormatSpanID(root.ID()))
		} else {
			tb, root = newTrace(id, rootName, start)
		}
		ctx := context.WithValue(r.Context(), traceKey{}, tb)

		code := StatusAborted // unless next returns: see the deferred record
		defer func() {
			elapsed := time.Since(start)
			path := r.URL.Path
			if o.PathFor != nil {
				path = o.PathFor(r)
			}
			codeStr := strconv.Itoa(code)
			if o.Requests != nil {
				o.Requests.Inc(path, codeStr)
			}
			if o.Latency != nil {
				o.Latency.Observe(elapsed.Seconds())
			}
			var stages stageTimings
			if o.StageLatency != nil || o.Logger != nil {
				stages = tb.stages()
			}
			if o.StageLatency != nil {
				for _, s := range stages {
					o.StageLatency.Observe(s.seconds, s.stage)
				}
			}
			o.SLO.Observe(code, elapsed)
			if o.Tracer.Enabled() {
				root.SetAttr("status", codeStr)
				root.SetAttrInt("bytes", sw.bytes)
				if path != r.URL.Path {
					// Unknown path clamped by PathFor: rename the root so the
					// recorder and export share the bounded-cardinality label.
					rootName = r.Method + " " + path
				}
				o.Tracer.FinishRequest(tb, root, rootName, code, elapsed)
			}
			if o.Logger != nil {
				o.Logger.LogAttrs(ctx, slog.LevelInfo, "request",
					slog.String("trace_id", id),
					slog.String("method", r.Method),
					slog.String("path", path),
					slog.Int("status", code),
					slog.Float64("duration_seconds", elapsed.Seconds()),
					slog.Int64("bytes", sw.bytes),
					slog.String("remote", r.RemoteAddr),
					slog.Any("spans", stages),
				)
			}
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if code = sw.code; code == 0 {
			code = http.StatusOK
		}
	})
}
