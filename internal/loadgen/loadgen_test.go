package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunMixedWorkloadScorecard(t *testing.T) {
	var predicts, batches, events atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/predict":
			predicts.Add(1)
		case "/predict/batch":
			batches.Add(1)
		case "/events":
			events.Add(1)
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-ID", "deadbeefcafe0123")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	sc, err := Run(context.Background(), Config{
		BaseURL: srv.URL, Requests: 200, Concurrency: 4, At: 2000,
		Validate: StrictValidate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Total != 200 {
		t.Fatalf("total = %d, want 200", sc.Total)
	}
	if sc.Invalid != 0 || sc.NetErrors != 0 || sc.ErrorRate != 0 {
		t.Fatalf("clean run scored dirty: %+v", sc)
	}
	if sc.Status[200] != 200 {
		t.Fatalf("status map: %v", sc.Status)
	}
	// Default 70/20/10 mix: each family must actually be exercised.
	if predicts.Load() == 0 || batches.Load() == 0 || events.Load() == 0 {
		t.Fatalf("mix not exercised: predict=%d batch=%d events=%d",
			predicts.Load(), batches.Load(), events.Load())
	}
	if sc.P50 <= 0 || sc.P99 < sc.P50 || sc.Max < sc.P99 {
		t.Fatalf("quantiles disordered: p50=%s p99=%s max=%s", sc.P50, sc.P99, sc.Max)
	}
	// The slowest-request digest carries the server-stamped trace IDs,
	// sorted slowest-first, so they can be pulled from /debug/requests.
	if len(sc.Slowest) != 5 {
		t.Fatalf("slowest digest has %d entries, want 5", len(sc.Slowest))
	}
	for i, sr := range sc.Slowest {
		if sr.TraceID != "deadbeefcafe0123" {
			t.Fatalf("slowest[%d] trace ID = %q", i, sr.TraceID)
		}
		if i > 0 && sr.Latency > sc.Slowest[i-1].Latency {
			t.Fatalf("slowest digest not sorted: %v", sc.Slowest)
		}
	}
	if sc.Slowest[0].Latency != sc.Max {
		t.Fatalf("slowest[0] = %s, max = %s", sc.Slowest[0].Latency, sc.Max)
	}
	if !strings.Contains(sc.String(), "trace deadbeefcafe0123") {
		t.Fatalf("scorecard text missing trace IDs:\n%s", sc.String())
	}
}

func TestStrictValidateContract(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		body       string
		ok         bool
	}{
		{"valid prediction", 200, "", `{"long":true,"prob":0.9}`, true},
		{"2xx garbage body", 200, "", `<html>oops`, false},
		{"shed with hint", 429, "1", `{"error":"overloaded"}`, true},
		{"shed without hint", 429, "", `{"error":"overloaded"}`, false},
		{"structured error", 503, "", `{"error":"not ready"}`, true},
		{"bare 500", 500, "", `Internal Server Error`, false},
		{"empty error body", 502, "", ``, false},
	}
	for _, c := range cases {
		err := StrictValidate(KindPredict, c.status, c.retryAfter, []byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRunCountsFailures(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`oops`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	sc, err := Run(context.Background(), Config{
		BaseURL: srv.URL, Requests: 50, Concurrency: 2, At: 2000, Validate: StrictValidate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Invalid == 0 {
		t.Fatalf("bare 500s not flagged invalid: %+v", sc)
	}
	if sc.ErrorRate == 0 {
		t.Fatal("error rate zero despite 500s")
	}
}

func TestRunOpenLoopPacing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	start := time.Now()
	sc, err := Run(context.Background(), Config{
		BaseURL: srv.URL, Duration: 300 * time.Millisecond,
		Concurrency: 2, RatePerSec: 50, At: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 50/s for 0.3s ≈ 15 arrivals; a closed loop against a local stub
	// would do thousands. Generous bound: open loop must have paced.
	if sc.Total > 60 {
		t.Fatalf("open loop did not pace: %d requests in %s", sc.Total, time.Since(start))
	}
}
