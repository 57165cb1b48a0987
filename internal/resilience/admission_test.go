package resilience

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// blockingHandler parks every request until release is closed, and
// signals entered once per request that made it past the gate.
func blockingHandler(entered chan<- struct{}, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})
}

func TestAdmissionRetryAfterRoundsUp(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 1500 * time.Millisecond})
	h := a.Middleware(blockingHandler(entered, release))

	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/events", nil))
	<-entered // slot now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/events", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("watermark breach answered %d, want 429", rec.Code)
	}
	// 1.5s rounds UP: a client honoring the hint must not return early.
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2 (whole seconds, rounded up)", ra)
	}
	if body := rec.Body.String(); body == "" {
		t.Fatal("shed without structured error body")
	}
}

func TestAdmissionQueuedRequestGetsFreedSlot(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	h := a.Middleware(blockingHandler(entered, release))

	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/events", nil))
	<-entered

	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/events", nil))
		done <- rec.Code
	}()
	// Let the second request queue, then free the slot: it must be admitted,
	// not shed.
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	close(release)
	<-entered
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request finished with %d, want admission", code)
	}
}

func TestAdmissionClientCancelWhileQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	shed := make(chan string, 4)
	a := NewAdmission(AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second,
		OnDecision: func(d string) { shed <- d },
	})
	h := a.Middleware(blockingHandler(entered, release))

	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/events", nil))
	<-entered
	<-shed // the accepted decision for the slot holder

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/events", nil).WithContext(ctx))
		close(done)
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	cancel()
	<-done
	if d := <-shed; d != AdmissionShedCanceled {
		t.Fatalf("decision = %q, want %q", d, AdmissionShedCanceled)
	}
	if a.queued.Load() != 0 {
		t.Fatalf("queued gauge leaked after cancel: %d", a.queued.Load())
	}
	var nilGate *Admission
	if nilGate.Middleware(h) == nil {
		t.Fatal("nil gate returned nil handler")
	}
}
