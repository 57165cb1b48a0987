GO ?= go

.PHONY: all build test race vet fmt-check loc fuzz-smoke metrics-smoke replication-smoke controlplane-smoke serving-smoke trace-smoke bench-module ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Root-package service tests train models; under the race detector on a
# single-CPU box that brushes the default 10m per-package limit.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Non-test Go outside bench/: the line count ROADMAP item 4 and every
# CHANGES.md entry track.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# Short fuzz of the event decoder and the predict decoders against
# encoding/json, the WAL segment reader, the WAL record encoder against
# json.Marshal, the model registry manifest decoder, the forest gob
# decoder, the queue-column feature row against the per-job walk, the
# engine-replay dataset against the trace scan and the interval trees, and
# the engine's memoized snapshots against a fresh extraction (corpus seeds
# + 5s of mutation each; Go allows one -fuzz target per run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodePredictRequest -fuzztime 5s .
	$(GO) test -run '^$$' -fuzz FuzzSnapshotRow -fuzztime 5s ./internal/features
	$(GO) test -run '^$$' -fuzz FuzzBuildReplay -fuzztime 5s ./internal/intervaltree
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 5s ./internal/livestate
	$(GO) test -run '^$$' -fuzz FuzzQueueMemo -fuzztime 5s ./internal/livestate
	$(GO) test -run '^$$' -fuzz FuzzReadSegment -fuzztime 5s ./internal/livestate
	$(GO) test -run '^$$' -fuzz FuzzWALEncode -fuzztime 5s ./internal/livestate
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 5s ./internal/controlplane
	$(GO) test -run '^$$' -fuzz FuzzForestGob -fuzztime 5s ./internal/baselines

# Line-by-line lint of the /metrics Prometheus exposition (HELP/TYPE
# pairing, label escaping, cumulative buckets, deterministic ordering).
metrics-smoke:
	$(GO) test -run TestMetricsExposition .

# Replication fault-injection suite under the race detector: leader
# kill -9/restart mid-stream, torn WAL tails, segment truncation, flaky
# and slow networks — followers must converge bit-identically and no
# acked event may be lost.
replication-smoke:
	$(GO) test -race -count=1 ./internal/replication/...

# Continual-learning loop, in process and seconds-scale: drift on live
# traffic triggers a retrain, the candidate and the incumbent are judged
# on the trainer's time-ordered holdout with no traffic, and the serving
# bundle hot-swaps (or, for a worse candidate, is rejected) under
# concurrent predict load; a much worse promoted bundle is rolled back on
# its own answers; the default trainer runs end to end — plus the
# registry crash-safety and controller state-machine suites.
controlplane-smoke:
	$(GO) test -count=1 ./internal/controlplane
	$(GO) test -run 'TestControlPlane|TestHotSwapHammer|TestAdminSwapCompatGuard' -count=1 .

# Short mixed-request run (smokeLoad, smoke_driver_test.go) against the
# serving hot path (queue memo, zero-alloc JSON) at the engine clock:
# every response must be a 200 that passes strict validation, the memo
# must hit, the queue must not be empty, and p99 must stay under a
# generous bound. Correctness tripwire, not a perf gate (that is bench/).
serving-smoke:
	$(GO) test -run 'TestServingSmoke$$' -count=1 .

# Serving smoke with tracing fully on: every exported JSONL trace line is
# schema-checked (16-hex IDs, parent refs resolving in-line, children
# nested inside their parents' intervals), plus the slow-request
# acceptance pin (export + /debug/requests agree on the trace ID), the
# stage-histogram/access-log/tree agreement pin, and trace-ID continuity
# across the follower's write proxy.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke$$|TestTraceSlowRequestRecorded$$|TestStageMetricsMatchTree$$|TestWriteProxyTraceContinuity$$' -count=1 .

# The repo benchmark (BENCHMARK.json) lives in bench/, a module of its own
# that imports this one through a replace directive, so the root
# `go build ./...` and `go test ./...` never compile it: this is what
# notices a root API change that breaks the benchmark's build. Its tests
# are an in-process quick pass (~10 s, no child process). The root
# TestBenchContract runs the vet half inside `go test ./...` too.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

ci: fmt-check vet build race fuzz-smoke metrics-smoke replication-smoke controlplane-smoke serving-smoke trace-smoke bench-module

clean:
	$(GO) clean ./...
