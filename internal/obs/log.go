package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the daemon's structured logger. format is "json"
// (machine-shippable, the production default) or "text" (key=value for
// terminals); level is debug|info|warn|error. A JSON logger's handler is
// a jsonHandler, whose sink Instrument also writes access records to.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "json":
		lw := &lockedWriter{w: w}
		return slog.New(jsonHandler{slog.NewJSONHandler(lw, opts), lw}), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want json|text)", format)
}

// Logf adapts a structured logger to the printf-style diagnostic hooks
// older layers expose (livestate.StoreOptions.Logf, middleware logf).
// What they report (recovered panics, a torn WAL tail, a failed
// checkpoint) is logged at Warn, so -log-level warn silences the access
// log but keeps these. A nil logger yields a nil func, which those hooks
// treat as disabled.
func Logf(l *slog.Logger) func(format string, args ...any) {
	if l == nil {
		return nil
	}
	return func(format string, args ...any) {
		l.Warn(fmt.Sprintf(format, args...))
	}
}

// jsonHandler is slog's JSON handler plus the sink it writes to, so
// Instrument can append an access record to the same sink without going
// through slog (see appendAccess). Derived handlers (WithAttrs,
// WithGroup) are slog's own type, so their records all go through slog.
type jsonHandler struct {
	*slog.JSONHandler
	w *lockedWriter
}

// lockedWriter serializes the writes of slog's handler and of Instrument,
// so a sink that is not safe for concurrent use never sees lines
// interleave.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
