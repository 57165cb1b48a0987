package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	var attempts []int
	p := Policy{
		InitialInterval: time.Microsecond,
		MaxInterval:     10 * time.Microsecond,
		OnRetry:         func(attempt int, err error, sleep time.Duration) { attempts = append(attempts, attempt) },
	}
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Fatalf("OnRetry attempts = %v", attempts)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	sentinel := errors.New("bad request")
	err := Retry(context.Background(), Policy{InitialInterval: time.Microsecond}, func(context.Context) error {
		calls++
		return Permanent(fmt.Errorf("wrapping: %w", sentinel))
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err %v does not unwrap to sentinel", err)
	}
	if !IsPermanent(err) {
		t.Fatal("permanence lost through return")
	}
}

// TestRetryCancellationMidSleep: a canceled context must interrupt the
// backoff sleep promptly, not wait it out.
func TestRetryCancellationMidSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{InitialInterval: time.Hour} // sleep would be an hour
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, p, func(context.Context) error { return errors.New("fail") })
	}()
	time.Sleep(10 * time.Millisecond) // let it enter the sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Retry did not return after cancellation mid-sleep")
	}
}

// TestPolicySleepMath pins the backoff schedule: doubling up to the cap.
func TestPolicySleepMath(t *testing.T) {
	p := Policy{InitialInterval: 100 * time.Millisecond, MaxInterval: time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Sleep(i + 1); got != w {
			t.Fatalf("Sleep(%d) = %s, want %s", i+1, got, w)
		}
	}
}

// TestRetryJitter: every sleep Retry takes lies in [ceiling/2, ceiling]
// of its attempt, and two loops on one policy do not sleep in lockstep.
func TestRetryJitter(t *testing.T) {
	p := Policy{InitialInterval: time.Microsecond, MaxInterval: 16 * time.Microsecond}
	run := func() []time.Duration {
		var sleeps []time.Duration
		q := p
		q.OnRetry = func(attempt int, err error, sleep time.Duration) {
			ceiling := p.Sleep(attempt)
			if sleep < ceiling/2 || sleep > ceiling {
				t.Errorf("attempt %d slept %s, outside [%s, %s]", attempt, sleep, ceiling/2, ceiling)
			}
			sleeps = append(sleeps, sleep)
		}
		calls := 0
		if err := Retry(context.Background(), q, func(context.Context) error {
			if calls++; calls <= 12 {
				return errors.New("transient")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return sleeps
	}
	a, b := run(), run()
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("slept %d and %d times, want 12", len(a), len(b))
	}
	if slices.Equal(a, b) {
		t.Fatalf("two retry loops slept identically: %v", a)
	}
}

func TestAdmissionFastPathAndQueueFull(t *testing.T) {
	var mu sync.Mutex
	decisions := map[string]int{}
	release := make(chan struct{})
	a := NewAdmission(AdmissionConfig{
		MaxInFlight: 1, MaxQueue: -1, // no queue: overflow sheds at once
		OnDecision: func(d string) { mu.Lock(); decisions[d]++; mu.Unlock() },
	})
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	// Occupy the single slot.
	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitFor(t, func() bool { return a.InFlight() == 1 })

	// The second arrival must shed immediately with 429 + Retry-After.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	release <- struct{}{}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status %d", code)
	}
	mu.Lock()
	defer mu.Unlock()
	if decisions[AdmissionShedQueue] != 1 || decisions[AdmissionAccepted] != 1 {
		t.Fatalf("decisions = %v", decisions)
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	release := make(chan struct{})
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 8, QueueTimeout: 30 * time.Millisecond})
	h := a.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	go func() { resp, err := http.Get(srv.URL); _ = err; _ = resp }()
	waitFor(t, func() bool { return a.InFlight() == 1 })

	// This one queues, then times out.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 after queue timeout", resp.StatusCode)
	}
	release <- struct{}{}
}

func TestAdmissionDisabled(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: -1})
	base := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	if got := a.Middleware(base); fmt.Sprintf("%p", got) == "" {
		t.Fatal("unreachable")
	}
	rec := httptest.NewRecorder()
	a.Middleware(base).ServeHTTP(rec, httptest.NewRequest("POST", "/events", nil))
	if rec.Code != 200 {
		t.Fatalf("disabled gate interfered: %d", rec.Code)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
