// Serving smoke (make serving-smoke, part of make ci): a short mixed
// loadgen run against an in-process service. Every response must be valid
// under the strict fault-window contract, the hard error rate must be
// exactly zero, and p99 must stay under a deliberately generous bound —
// this is a correctness tripwire for the serving hot path (snapshot
// cache, zero-alloc JSON), not a performance gate (that is
// BENCH_serving.json + benchjson -check).
package trout_test

import (
	"context"
	"testing"
	"time"

	trout "repro"
	"repro/internal/loadgen"
)

func TestServingSmoke(t *testing.T) {
	e := sharedExperiment(t)
	bundle := resilientBundle(t)
	// resilientBundle is shared across the package's tests; revert the
	// float32 compile so later tests see the f64 reference path.
	t.Cleanup(bundle.DisableFastInference)
	svc, err := trout.NewServiceWith(bundle, e.Trace, trout.ServiceConfig{FastInference: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sc, err := loadgen.Run(ctx, loadgen.Config{
		Handler:     svc.Handler(),
		Requests:    1500,
		Concurrency: 8,
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
	// Generous: in-process p99 is typically well under a millisecond; the
	// bound only catches pathological serialization (a stuck lock, an
	// accidental O(N) per request).
	if sc.P99 > 2*time.Second {
		t.Fatalf("p99 %s exceeds generous 2s bound", sc.P99)
	}
}
