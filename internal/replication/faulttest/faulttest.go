// Package faulttest is the fault-injection harness for the replication
// subsystem: it crash-kills and restarts a leader mid-stream (kill -9
// semantics — no Close, no final sync), tears WAL records mid-write, and
// injects network faults (errors, slow reads, mid-body failures) into the
// follower's transport, then asserts that followers converge to the
// leader's bit-identical engine state and that no acknowledged event is
// lost.
package faulttest

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livestate"
	"repro/internal/replication"
)

// FlakyTransport wraps an http.RoundTripper with deterministic fault
// injection: every FailEveryN-th request errors before reaching the wire,
// every TimeoutEveryN-th hangs for HangFor then errors (a stuck leader),
// every SlowEveryN-th is delayed by SlowBy (a slow network), and every
// BodyFailEveryN-th returns a body that errors mid-read (a connection cut
// mid-stream). Counters are per-transport, so interleaved fault kinds
// exercise different requests.
type FlakyTransport struct {
	Base http.RoundTripper

	FailEveryN     int
	TimeoutEveryN  int
	HangFor        time.Duration
	SlowEveryN     int
	SlowBy         time.Duration
	BodyFailEveryN int
	// BodyFailAfter is how many body bytes flow before the mid-read error.
	BodyFailAfter int64

	n        atomic.Int64
	injected atomic.Int64
}

// Injected counts faults actually delivered — tests assert it is non-zero
// so a mistuned schedule cannot silently test the happy path.
func (ft *FlakyTransport) Injected() int64 { return ft.injected.Load() }

var errInjected = errors.New("faulttest: injected network error")

func (ft *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := ft.n.Add(1)
	base := ft.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if ft.FailEveryN > 0 && n%int64(ft.FailEveryN) == 0 {
		ft.injected.Add(1)
		return nil, errInjected
	}
	if ft.TimeoutEveryN > 0 && n%int64(ft.TimeoutEveryN) == 0 {
		ft.injected.Add(1)
		hang := ft.HangFor
		if hang == 0 {
			hang = 50 * time.Millisecond
		}
		select {
		case <-req.Context().Done():
		case <-time.After(hang):
		}
		return nil, fmt.Errorf("faulttest: injected timeout: %w", errInjected)
	}
	if ft.SlowEveryN > 0 && n%int64(ft.SlowEveryN) == 0 {
		ft.injected.Add(1)
		slow := ft.SlowBy
		if slow == 0 {
			slow = 20 * time.Millisecond
		}
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(slow):
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if ft.BodyFailEveryN > 0 && n%int64(ft.BodyFailEveryN) == 0 {
		ft.injected.Add(1)
		after := ft.BodyFailAfter
		if after == 0 {
			after = 64
		}
		resp.Body = &failingBody{rc: resp.Body, remaining: after}
	}
	return resp, nil
}

// failingBody errors after passing through a fixed number of bytes.
type failingBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("faulttest: injected mid-body read error: %w", errInjected)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *failingBody) Close() error { return b.rc.Close() }

// Harness runs a crashable leader behind a stable URL. Kill abandons the
// store without Close or sync — exactly what kill -9 leaves behind — and
// makes the URL drop connections abruptly; Restart recovers a fresh store
// from the same directory and serves again.
type Harness struct {
	t   *testing.T
	dir string
	opt livestate.StoreOptions
	srv *httptest.Server

	down atomic.Bool

	mu    sync.Mutex
	store *livestate.Store
	mux   *http.ServeMux
}

// NewHarness opens a leader store with opt (Dir forced to a fresh temp dir
// unless set) and serves its replication endpoints. The server is cleaned
// up with the test.
func NewHarness(t *testing.T, opt livestate.StoreOptions) *Harness {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	h := &Harness{t: t, dir: opt.Dir, opt: opt}
	h.openStore()
	h.srv = httptest.NewServer(http.HandlerFunc(h.serve))
	t.Cleanup(h.srv.Close)
	return h
}

func (h *Harness) openStore() {
	h.t.Helper()
	s, err := livestate.OpenStore(h.opt)
	if err != nil {
		h.t.Fatalf("faulttest: open leader store: %v", err)
	}
	mux := http.NewServeMux()
	replication.NewLeader(s).Register(mux)
	h.mu.Lock()
	h.store, h.mux = s, mux
	h.mu.Unlock()
}

func (h *Harness) serve(w http.ResponseWriter, r *http.Request) {
	if h.down.Load() {
		// kill -9 from the client's view: the connection dies, no HTTP.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	h.mu.Lock()
	mux := h.mux
	h.mu.Unlock()
	mux.ServeHTTP(w, r)
}

// URL is the leader's stable base URL — it survives Kill/Restart, like a
// service VIP surviving a failed process.
func (h *Harness) URL() string { return h.srv.URL }

// Store returns the current (live) leader store.
func (h *Harness) Store() *livestate.Store {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.store
}

// Kill simulates kill -9: the store is abandoned with no Close and no
// final sync (buffered, un-fsynced records are torn away), and every
// connection to the URL drops abruptly. It returns the durable LSN at
// death — the no-acked-loss bar Restart must clear.
func (h *Harness) Kill() uint64 {
	h.mu.Lock()
	durable := h.store.DurableLSN()
	h.store = nil // abandoned, never Closed — its unsynced tail is lost
	h.mu.Unlock()
	h.down.Store(true)
	h.srv.CloseClientConnections()
	return durable
}

// TearActiveWAL truncates the active WAL file by n bytes, simulating a
// record torn by the crash. Call between Kill and Restart.
func (h *Harness) TearActiveWAL(n int64) {
	h.t.Helper()
	path := filepath.Join(h.dir, "events.wal")
	fi, err := os.Stat(path)
	if err != nil {
		h.t.Fatalf("faulttest: stat active wal: %v", err)
	}
	if fi.Size() < n {
		h.t.Fatalf("faulttest: active wal only %d bytes, cannot tear %d", fi.Size(), n)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		h.t.Fatalf("faulttest: tear active wal: %v", err)
	}
}

// Restart recovers a store from the same directory (replaying segments and
// truncating any torn tail) and resumes serving on the same URL.
func (h *Harness) Restart() {
	h.t.Helper()
	h.openStore()
	h.down.Store(false)
}
