package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime self-telemetry: a cached runtime/metrics sampler behind
// trout_runtime_* gauges. All gauges share one Read per refresh window,
// so a scrape costs one runtime/metrics batch read at most once per
// second no matter how many families are registered.

const runtimeRefresh = time.Second

// runtimeMetricNames are the runtime/metrics keys we sample. Missing
// names (older/newer runtimes) simply report zero — the series set on
// /metrics stays stable either way.
var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

type runtimeSampler struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample
	vals    map[string]float64
}

func newRuntimeSampler() *runtimeSampler {
	s := &runtimeSampler{vals: map[string]float64{}}
	s.samples = make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s.samples[i].Name = n
	}
	return s
}

// get returns the cached value for a derived metric key, refreshing the
// whole batch when the cache is older than runtimeRefresh.
func (s *runtimeSampler) get(key string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.last) >= runtimeRefresh {
		metrics.Read(s.samples)
		for _, sm := range s.samples {
			switch sm.Value.Kind() {
			case metrics.KindUint64:
				s.vals[sm.Name] = float64(sm.Value.Uint64())
			case metrics.KindFloat64:
				s.vals[sm.Name] = sm.Value.Float64()
			case metrics.KindFloat64Histogram:
				h := sm.Value.Float64Histogram()
				s.vals[sm.Name+"#p99"] = histQuantile(h, 0.99)
			}
		}
		s.last = time.Now()
	}
	return s.vals[key]
}

// histQuantile reads quantile q from a runtime/metrics histogram. The
// bucket midpoint keeps it simple; runtime histograms are fine-grained
// enough that the approximation is well under display precision.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen > rank {
			lo := h.Buckets[i]
			hi := h.Buckets[i+1]
			// Outermost buckets can be infinite; clamp to the finite edge.
			switch {
			case math.IsInf(lo, 0):
				return hi
			case math.IsInf(hi, 0):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// RegisterRuntime exposes process self-telemetry as trout_runtime_*.
func RegisterRuntime(r *Registry) {
	if r == nil {
		return
	}
	s := newRuntimeSampler()
	r.GaugeFunc("trout_runtime_goroutines",
		"Live goroutine count.",
		func() float64 { return s.get("/sched/goroutines:goroutines") })
	r.GaugeFunc("trout_runtime_heap_bytes",
		"Bytes of live heap objects.",
		func() float64 { return s.get("/memory/classes/heap/objects:bytes") })
	r.CounterFunc("trout_runtime_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return s.get("/gc/cycles/total:gc-cycles") })
	r.GaugeFunc("trout_runtime_gc_pause_p99_seconds",
		"p99 stop-the-world GC pause (process lifetime).",
		func() float64 { return s.get("/gc/pauses:seconds#p99") })
	r.GaugeFunc("trout_runtime_sched_latency_p99_seconds",
		"p99 goroutine scheduling latency (process lifetime).",
		func() float64 { return s.get("/sched/latencies:seconds#p99") })
	r.GaugeFunc("trout_runtime_gomaxprocs",
		"GOMAXPROCS at scrape time.",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })
}
