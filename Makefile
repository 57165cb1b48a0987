GO ?= go

# Trace size for the snapshot benchmarks (legacy scan vs livestate engine).
BENCH_JOBS ?= 50000
# Repetitions per benchmark; pipe the output into benchstat to compare runs.
BENCH_COUNT ?= 5

.PHONY: all build test race vet fmt-check fuzz-smoke metrics-smoke replication-smoke controlplane-smoke serving-smoke trace-smoke bench-module bench bench-json bench-smoke bench-check ci clean

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

# Short fuzz of the event decoder, the WAL segment reader, the model
# registry manifest decoder, and the forest gob decoder (corpus seeds +
# 5s of mutation each; Go allows one -fuzz target per run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 5s ./internal/livestate
	$(GO) test -run '^$$' -fuzz FuzzReadSegment -fuzztime 5s ./internal/livestate
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
# traffic triggers a retrain, the candidate shadow-scores against the
# incumbent, and the serving bundle hot-swaps (or, for a worse candidate,
# is rejected) under concurrent predict load — plus the registry
# crash-safety and controller state-machine suites.
controlplane-smoke:
	$(GO) test -count=1 ./internal/controlplane
	$(GO) test -run 'TestControlPlane|TestHotSwapHammer|TestAdminSwapCompatGuard' -count=1 .

# Short in-process loadgen run against the serving hot path (snapshot
# cache, zero-alloc JSON): every response must pass
# strict validation, the hard error rate must be exactly zero, and p99
# must stay under a generous bound. Correctness tripwire, not a perf gate.
serving-smoke:
	$(GO) test -run 'TestServingSmoke$$' -count=1 .

# Serving smoke with tracing fully on: every exported JSONL trace line is
# schema-checked (16-hex IDs, parent refs resolving in-line, children
# nested inside their parents' intervals), plus the slow-request
# acceptance pin (export + /debug/requests agree on the trace ID), the
# stage-histogram/access-log/tree agreement pin, and cross-node links
# over both write-forwarding modes.
trace-smoke:
	$(GO) test -run 'TestTraceSmoke$$|TestTraceSlowRequestRecorded$$|TestStageMetricsMatchTree$$|TestWriteProxyTraceContinuity$$' -count=1 .

# The repo benchmark (BENCHMARK.json) lives in bench/, a module of its own
# that imports this one through a replace directive, so the root
# `go build ./...` and `go test ./...` never compile it: this is what
# notices a root API change that breaks the benchmark's build. Its tests
# are an in-process quick pass (~10 s, no child process).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Legacy O(N) snapshot scan vs the livestate engine's indexed extraction,
# in benchstat-friendly form:
#   make bench > new.txt && benchstat old.txt new.txt
bench:
	TROUT_BENCH_JOBS=$(BENCH_JOBS) $(GO) test -run '^$$' \
		-bench 'SnapshotAtInstant$$|LiveStateSnapshot$$' \
		-benchmem -count $(BENCH_COUNT) .

# Hot-path benchmark suites, archived as JSON so runs diff cleanly:
#   BENCH_inference.json — single vs sequential-64 vs batched-64 predicts,
#                          warm-forward allocation profile, flat vs pointer
#                          forest/GBDT ensemble walks
#   BENCH_train.json     — tree-ensemble fits (histogram vs exact), one NN
#                          training epoch, hyperopt search loops
#   BENCH_serving.json   — full HTTP /predict round trips (sequential,
#                          parallel across procs, 64-job batch) through the
#                          shared snapshot cache and pooled JSON path
bench-json:
	$(GO) test -run '^$$' -bench 'PredictSingle$$|PredictSequential64$$|PredictBatch64$$|ForwardAllocs$$' \
		-benchmem . > bench_inference.txt
	$(GO) test -run '^$$' -bench 'ForestPredict$$|GBDTPredict$$' -benchmem ./internal/baselines >> bench_inference.txt
	$(GO) run ./cmd/benchjson -o BENCH_inference.json bench_inference.txt
	$(GO) test -run '^$$' -bench 'ForestFit$$|GBDTFit$$' -benchmem ./internal/baselines > bench_train.txt
	$(GO) test -run '^$$' -bench 'TrainEpoch$$' -benchmem ./internal/nn >> bench_train.txt
	$(GO) test -run '^$$' -bench 'HyperoptSearch$$|HyperoptGBDTSearch$$' -benchmem ./internal/hyperopt >> bench_train.txt
	$(GO) run ./cmd/benchjson -o BENCH_train.json bench_train.txt
	$(GO) test -run '^$$' -bench 'HTTPPredict$$|HTTPPredictParallel$$|HTTPPredictBatch64$$' \
		-benchmem . > bench_serving.txt
	$(GO) run ./cmd/benchjson -o BENCH_serving.json bench_serving.txt
	rm -f bench_inference.txt bench_train.txt bench_serving.txt

# One-iteration pass over the same benchmarks so CI catches bit-rot in the
# bench harness without paying for stable measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench 'PredictSingle$$|PredictBatch64$$|ForwardAllocs$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'HyperoptSearch' -benchtime 1x ./internal/hyperopt

# Regression gate, two halves. Training-path benchmarks run one shot each
# (a fit is seconds of sample on its own); inference benchmarks run enough
# iterations that even the sub-microsecond single-predict path accumulates
# a >=100µs sample, so benchjson -check can gate it instead of skipping it.
# Both must stay within 2x of their committed BENCH_*.json baseline.
# Refresh the baselines with `make bench-json` after an intentional change.
bench-check:
	$(GO) test -run '^$$' -bench 'ForestFit$$|GBDTFit$$' -benchtime 1x ./internal/baselines > bench_check.txt
	$(GO) test -run '^$$' -bench 'TrainEpoch$$' -benchtime 1x ./internal/nn >> bench_check.txt
	$(GO) run ./cmd/benchjson -check BENCH_train.json bench_check.txt
	$(GO) test -run '^$$' -bench 'PredictSingle$$|PredictSequential64$$|PredictBatch64$$|ForwardAllocs$$' \
		-benchtime 200x . > bench_check.txt
	$(GO) test -run '^$$' -bench 'ForestPredict$$|GBDTPredict$$' -benchtime 20x ./internal/baselines >> bench_check.txt
	$(GO) run ./cmd/benchjson -check BENCH_inference.json bench_check.txt
	$(GO) test -run '^$$' -bench 'HTTPPredict$$|HTTPPredictParallel$$|HTTPPredictBatch64$$' \
		-benchtime 20x . > bench_check.txt
	$(GO) run ./cmd/benchjson -check BENCH_serving.json bench_check.txt
	rm -f bench_check.txt

ci: fmt-check vet build race fuzz-smoke metrics-smoke replication-smoke controlplane-smoke serving-smoke trace-smoke bench-module bench-smoke bench-check

clean:
	$(GO) clean ./...
