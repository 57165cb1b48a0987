package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// SpanJSON is the export/debug wire form of one span. The same shape is
// written to the JSONL trace file and served by /debug/requests, so a
// trace ID pasted from one is directly comparable in the other.
type SpanJSON struct {
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	StartUnixNs int64             `json:"start_unix_ns"`
	EndUnixNs   int64             `json:"end_unix_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Error       string            `json:"error,omitempty"`
	Link        *SpanLinkJSON     `json:"link,omitempty"`
}

// SpanLinkJSON points at a span in another trace (or, for a proxied
// request's root, the caller's span in the same trace on another node).
type SpanLinkJSON struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// TraceJSON is one exported JSONL line: a complete trace.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	Root       string     `json:"root"`
	DurationMs float64    `json:"duration_ms"`
	Spans      []SpanJSON `json:"spans"`
}

// spansToJSON converts cloned span records to the wire form.
func spansToJSON(spans []SpanRec) []SpanJSON {
	out := make([]SpanJSON, len(spans))
	for i, s := range spans {
		j := SpanJSON{
			SpanID:      FormatSpanID(s.ID),
			Name:        s.Name,
			StartUnixNs: s.Start,
			EndUnixNs:   s.End,
			Error:       s.Err,
		}
		if s.Parent != 0 {
			j.ParentID = FormatSpanID(s.Parent)
		}
		if len(s.Attrs) > 0 {
			j.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				j.Attrs[a.Key] = a.Val
			}
		}
		if s.LinkTrace != "" {
			j.Link = &SpanLinkJSON{TraceID: s.LinkTrace, SpanID: FormatSpanID(s.LinkSpan)}
		}
		out[i] = j
	}
	return out
}

// traceJSONFrom builds the export line for a trace buffer from a clone of
// its spans: the exporter goroutine writes it after the request returned.
func traceJSONFrom(tb *TraceBuf) TraceJSON {
	spans := tb.snapshot(time.Now().UnixNano())
	line := TraceJSON{TraceID: tb.traceID, Spans: spansToJSON(spans)}
	if len(spans) > 0 {
		line.Root = spans[0].Name
		line.DurationMs = float64(spans[0].End-spans[0].Start) / 1e6
	}
	return line
}

// exporter writes kept traces as JSONL, one trace per line, on its own
// goroutine behind a bounded queue: the hot path only does a channel
// send (or a counter bump when the queue is full). The file rotates at
// maxBytes into path.1 … path.(maxFiles-1).
type exporter struct {
	path     string
	maxBytes int64
	maxFiles int

	q      chan TraceJSON
	flushc chan chan struct{}
	donec  chan struct{}
	stopc  chan struct{}

	f    *os.File
	size int64

	exported atomic.Uint64
	dropped  atomic.Uint64
	closed   atomic.Bool
}

func newExporter(path string, maxBytes int64, maxFiles, queueLen int) (*exporter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace exporter: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace exporter: %w", err)
	}
	e := &exporter{
		path: path, maxBytes: maxBytes, maxFiles: maxFiles,
		q:      make(chan TraceJSON, queueLen),
		flushc: make(chan chan struct{}),
		donec:  make(chan struct{}),
		stopc:  make(chan struct{}),
		f:      f, size: st.Size(),
	}
	go e.loop()
	return e, nil
}

// enqueue hands a kept trace to the writer. The JSON-ready clone is
// built here (off the keep-nothing path — only kept traces pay it); the
// channel send never blocks.
func (e *exporter) enqueue(tb *TraceBuf) {
	if e.closed.Load() {
		e.dropped.Add(1)
		return
	}
	select {
	case e.q <- traceJSONFrom(tb):
	default:
		e.dropped.Add(1)
	}
}

func (e *exporter) loop() {
	defer close(e.donec)
	for {
		select {
		case line := <-e.q:
			e.write(line)
		case ack := <-e.flushc:
			e.drain()
			close(ack)
		case <-e.stopc:
			e.drain()
			e.f.Close()
			return
		}
	}
}

func (e *exporter) drain() {
	for {
		select {
		case line := <-e.q:
			e.write(line)
		default:
			return
		}
	}
}

func (e *exporter) write(line TraceJSON) {
	b, err := json.Marshal(line)
	if err != nil {
		e.dropped.Add(1)
		return
	}
	b = append(b, '\n')
	if e.size+int64(len(b)) > e.maxBytes && e.size > 0 {
		e.rotate()
	}
	n, err := e.f.Write(b)
	e.size += int64(n)
	if err != nil {
		e.dropped.Add(1)
		return
	}
	e.exported.Add(1)
}

// rotate shifts path.(n-1)←…←path.1←path and reopens a fresh file.
// Rotation errors are swallowed (a rename race loses history, never
// serving); a reopen failure keeps writing the old handle.
func (e *exporter) rotate() {
	for i := e.maxFiles - 1; i >= 1; i-- {
		src := e.path
		if i > 1 {
			src = fmt.Sprintf("%s.%d", e.path, i-1)
		}
		os.Rename(src, fmt.Sprintf("%s.%d", e.path, i))
	}
	if e.maxFiles <= 1 {
		os.Remove(e.path)
	}
	f, err := os.OpenFile(e.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	e.f.Close()
	e.f = f
	e.size = 0
}

func (e *exporter) flush() {
	if e.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case e.flushc <- ack:
		<-ack
	case <-e.donec:
	}
}

func (e *exporter) close() error {
	if e.closed.CompareAndSwap(false, true) {
		close(e.stopc)
	}
	<-e.donec
	return nil
}
