// Serving smoke (make serving-smoke, part of make ci): a short mixed
// loadgen run against an in-process service, at the engine clock of a
// queue with work in it. Every response must be a 200 that is valid under
// the strict fault-window contract, the snapshot cache must have hit, and
// p99 must stay under a deliberately generous bound — this is a
// correctness tripwire for the serving hot path (snapshot cache,
// zero-alloc JSON), not a performance gate (that is bench/).
package trout_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	trout "repro"
	"repro/internal/loadgen"
)

func TestServingSmoke(t *testing.T) {
	q := liveQueueFixture(t)
	bundle := resilientBundle(t)
	// resilientBundle is shared across the package's tests; revert the
	// float32 compile so later tests see the f64 reference path.
	t.Cleanup(bundle.DisableFastInference)
	svc, err := trout.NewServiceWith(bundle, q.Trace, trout.ServiceConfig{FastInference: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sc, err := loadgen.Run(ctx, loadgen.Config{
		Handler:     svc.Handler(),
		Requests:    1500,
		Concurrency: 8,
		At:          q.Now,
		Validate:    loadgen.StrictValidate,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sc)
	if sc.ErrorRate != 0 {
		t.Fatalf("error rate %.4f, want 0 (invalid=%d net=%d samples=%v)",
			sc.ErrorRate, sc.Invalid, sc.NetErrors, sc.InvalidSamples)
	}
	if sc.Invalid != 0 {
		t.Fatalf("%d invalid responses: %v", sc.Invalid, sc.InvalidSamples)
	}
	// A structured 4xx is "valid" under the strict contract, which is how
	// this test once passed with every predict refused or answered from an
	// empty queue: require real answers from a real queue.
	if sc.Status[http.StatusOK] != sc.Total {
		t.Fatalf("statuses %v, want all %d requests answered 200", sc.Status, sc.Total)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	text, _ := scrape(t, srv.URL)
	if hits := metricValue(t, text, `trout_snapshot_cache_requests_total{result="hit"}`); hits == 0 {
		t.Fatal("no snapshot cache hit in 1,500 requests")
	}
	// loadgen's own /events submissions are pending by now, on top of the
	// fixture's.
	n, src := probePending(t, srv.URL, svc.LiveStore().Engine().Now())
	if src != "live" || n <= len(q.Pending) {
		t.Fatalf("predict at the engine clock: source %q, %d pending (fixture alone has %d)", src, n, len(q.Pending))
	}
	// Generous: in-process p99 is typically well under a millisecond; the
	// bound only catches pathological serialization (a stuck lock, an
	// accidental O(N) per request).
	if sc.P99 > 2*time.Second {
		t.Fatalf("p99 %s exceeds generous 2s bound", sc.P99)
	}
}
