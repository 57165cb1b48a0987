// Serving smoke (make serving-smoke, part of make ci): a short mixed
// smokeLoad run against a service, at the engine clock of a queue with
// work in it. Every response must be a 200 that is valid under
// the strict fault-window contract, the engine's queue memo must have hit,
// and p99 must stay under a deliberately generous bound — this is a
// correctness tripwire for the serving hot path (queue memo, zero-alloc
// JSON), not a performance gate (that is bench/).
package trout_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	trout "repro"
)

func TestServingSmoke(t *testing.T) {
	q := liveQueueFixture(t)
	svc, err := trout.NewServiceWith(fastBundle(t), q.Trace, trout.ServiceConfig{FastInference: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	sc := smokeLoad(t, srv.URL, 1500, 8, q.Now, 1_000_000)
	if len(sc.Invalid) != 0 {
		t.Fatalf("%d invalid responses: %v", len(sc.Invalid), sc.Invalid)
	}
	// A structured 4xx is "valid" under the strict contract, which is how
	// this test once passed with every predict refused or answered from an
	// empty queue: require real answers from a real queue.
	if sc.Total != 1500 || sc.Status[http.StatusOK] != sc.Total {
		t.Fatalf("statuses %v, want all 1500 requests answered 200", sc.Status)
	}
	text, _ := scrape(t, srv.URL)
	if hits := metricValue(t, text, `trout_snapshot_cache_requests_total{result="hit"}`); hits == 0 {
		t.Fatal("no queue-memo hit in 1,500 requests")
	}
	// smokeLoad's own /events submissions are pending by now, on top of the
	// fixture's.
	n, src := probePending(t, srv.URL, svc.LiveStore().Engine().Now())
	if src != "live" || n <= len(q.Pending) {
		t.Fatalf("predict at the engine clock: source %q, %d pending (fixture alone has %d)", src, n, len(q.Pending))
	}
	// Generous: loopback p99 is typically around a millisecond; the
	// bound only catches pathological serialization (a stuck lock, an
	// accidental O(N) per request).
	if sc.P99 > 2*time.Second {
		t.Fatalf("p99 %s exceeds generous 2s bound", sc.P99)
	}
}
