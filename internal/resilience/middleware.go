package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime/debug"
	"time"
)

// ErrorBody is the structured JSON payload every middleware-generated
// error response carries, so clients never have to parse free-form text.
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// WriteError writes a structured JSON error response.
func WriteError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: msg, Status: status})
}

// BodyErrorStatus maps a request-body read/decode error to an HTTP status:
// 413 when the MaxBytes limit was hit, 400 otherwise.
func BodyErrorStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Recover converts handler panics into structured JSON 500s, logging each
// with its stack via logf (may be nil); see recoverPanic.
func Recover(next http.Handler, logf func(format string, args ...any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gw := &guardWriter{ResponseWriter: w}
		defer gw.recoverPanic(r, logf)
		next.ServeHTTP(gw, r)
	})
}

// MaxBytes caps request-body size at limit bytes (0 disables). Oversized
// bodies make the handler's reads fail with *http.MaxBytesError, which
// BodyErrorStatus maps to a 413; bodies whose declared Content-Length
// already exceeds the limit are rejected up front.
func MaxBytes(next http.Handler, limit int64) http.Handler {
	if limit <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > limit {
			WriteError(w, http.StatusRequestEntityTooLarge,
				"request body too large")
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		next.ServeHTTP(w, r)
	})
}

// guardWriter records whether the response has started. With a deadline it
// also judges the first WriteHeader/Write: at or after the deadline the JSON
// 504 goes out instead and the handler's output is dropped. Unwrap keeps
// http.ResponseController working through it.
type guardWriter struct {
	http.ResponseWriter
	deadline time.Time // zero: no deadline
	started  bool
	expired  bool // the 504 replaced the handler's response
}

// start reports whether the handler's output may pass.
func (g *guardWriter) start() bool {
	if !g.started {
		g.started = true
		if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
			g.expired = true
			// The handler may have sized its own body already.
			g.ResponseWriter.Header().Del("Content-Length")
			WriteError(g.ResponseWriter, http.StatusGatewayTimeout, "request deadline exceeded")
		}
	}
	return !g.expired
}

func (g *guardWriter) WriteHeader(code int) {
	if g.start() {
		g.ResponseWriter.WriteHeader(code)
	}
}

// Write reports a dropped write as done, so a streaming handler such as
// httputil.ReverseProxy finishes instead of aborting the 504.
func (g *guardWriter) Write(p []byte) (int, error) {
	if !g.start() {
		return len(p), nil
	}
	return g.ResponseWriter.Write(p)
}

func (g *guardWriter) Unwrap() http.ResponseWriter { return g.ResponseWriter }

// recoverPanic is deferred by Recover and Timeout. A panic before the
// response started becomes a logged JSON 500. After it, the panic is logged
// and re-panicked as http.ErrAbortHandler, so net/http aborts the connection
// rather than append a 500 to a started reply. http.ErrAbortHandler itself
// passes through unchanged and unlogged.
func (g *guardWriter) recoverPanic(r *http.Request, logf func(format string, args ...any)) {
	p := recover()
	if p == nil {
		return
	}
	if p == http.ErrAbortHandler {
		panic(p)
	}
	if logf != nil {
		logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
	}
	if g.started {
		panic(http.ErrAbortHandler)
	}
	g.started = true
	WriteError(g.ResponseWriter, http.StatusInternalServerError, "internal server error")
}

// Timeout enforces a per-request deadline on the request's own goroutine:
// after d the handler's context ends and its body reads fail, and a first
// write at or after it (or none by the handler's return) sends the JSON 504.
// A reply begun in time completes. Panics are handled as under Recover.
func Timeout(next http.Handler, d time.Duration, logf func(format string, args ...any)) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(d)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		// Only a body still to be read gets the read deadline: a deadline
		// firing under net/http's background read of the conn (started,
		// deadline cleared, once no body remains) cancels later requests.
		rc := http.NewResponseController(w)
		readDeadline := r.Body != nil && r.Body != http.NoBody
		if readDeadline {
			_ = rc.SetReadDeadline(deadline)
		}
		gw := &guardWriter{ResponseWriter: w, deadline: deadline}
		defer gw.recoverPanic(r, logf)
		next.ServeHTTP(gw, r.WithContext(ctx))
		if time.Now().Before(deadline) {
			if readDeadline {
				_ = rc.SetReadDeadline(time.Time{})
			}
			return
		}
		// Late: the expired read deadline stays, so net/http's discard of
		// an unread body fails at once instead of waiting on the client.
		gw.start()
	})
}
