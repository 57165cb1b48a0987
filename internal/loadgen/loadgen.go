// Package loadgen drives a troutd instance with a mixed /predict,
// /predict/batch, and /events workload and scores what came back:
// latency quantiles per endpoint, status distribution, error rate, and —
// for fault-injection runs — a strict per-response validity check (every
// answer must be a valid prediction, a structured error, or a 429 with
// Retry-After; anything else is a correctness failure, not just an error).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Kind labels one request family in the mix.
type Kind string

const (
	KindPredict Kind = "predict"
	KindBatch   Kind = "batch"
	KindEvents  Kind = "events"
)

// Config shapes one load run. The zero value needs at least BaseURL (or
// Handler), At, and either Duration or Requests.
type Config struct {
	// BaseURL of the target service (no trailing slash).
	BaseURL string
	// Client overrides the HTTP client (fault tests inject transports
	// here). Nil uses a client with Timeout 10s.
	Client *http.Client
	// Handler, when set, dispatches requests straight into an in-process
	// http.Handler instead of a network client — no sockets, no listener,
	// so smoke tests and benches measure the serving stack rather than
	// the loopback. Overrides Client; BaseURL defaults to a placeholder.
	Handler http.Handler
	// Duration stops the run on wall clock; Requests stops it after a
	// total request count. Either (or both) may be set; first wins.
	Duration time.Duration
	Requests int
	// Concurrency is the worker count (closed loop). 0 means 4.
	Concurrency int
	// RatePerSec > 0 switches to open loop: arrivals are paced globally at
	// this rate regardless of response latency, so an overloaded server
	// builds queueing (and sheds) instead of implicitly slowing the
	// generator. 0 is closed loop.
	RatePerSec float64
	// PredictWeight : BatchWeight : EventsWeight picks each request's
	// kind. All zero means 70:20:10.
	PredictWeight, BatchWeight, EventsWeight int
	// BatchSize is the jobs per /predict/batch request. 0 means 8.
	BatchSize int
	// At is the prediction instant (unix seconds) sent with predict/batch
	// bodies and stamped on submitted events. Required: the target answers
	// from its live engine, so callers pass its clock — an instant more
	// than an hour behind it is refused with a 422.
	At int64
	// JobIDBase namespaces the synthetic job IDs this run submits via
	// /events so concurrent or repeated runs do not collide. 0 means 10^6.
	JobIDBase int64
	// Seed makes the kind/job randomness reproducible. 0 means 1.
	Seed int64
	// Validate, when set, judges every HTTP response (network errors are
	// counted separately). Use StrictValidate for fault windows.
	Validate func(kind Kind, status int, retryAfter string, body []byte) error
}

func (c Config) withDefaults() Config {
	if c.Handler != nil {
		c.Client = &http.Client{Transport: handlerTransport{h: c.Handler}, Timeout: 10 * time.Second}
		if c.BaseURL == "" {
			c.BaseURL = "http://in-process"
		}
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Concurrency == 0 {
		c.Concurrency = 4
	}
	if c.PredictWeight == 0 && c.BatchWeight == 0 && c.EventsWeight == 0 {
		c.PredictWeight, c.BatchWeight, c.EventsWeight = 70, 20, 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.JobIDBase == 0 {
		c.JobIDBase = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// KindStats is one request family's slice of the scorecard.
type KindStats struct {
	Count     uint64        `json:"count"`
	NetErrors uint64        `json:"net_errors"`
	Invalid   uint64        `json:"invalid"`
	P50       time.Duration `json:"p50_ns"`
	P90       time.Duration `json:"p90_ns"`
	P99       time.Duration `json:"p99_ns"`
	Max       time.Duration `json:"max_ns"`
}

// Scorecard is the run's verdict.
type Scorecard struct {
	Duration   time.Duration       `json:"duration_ns"`
	Total      uint64              `json:"total"`
	NetErrors  uint64              `json:"net_errors"`
	Invalid    uint64              `json:"invalid"`
	Dropped    uint64              `json:"dropped_arrivals,omitempty"` // open loop only
	Status     map[int]uint64      `json:"status"`
	Kinds      map[Kind]*KindStats `json:"kinds"`
	P50        time.Duration       `json:"p50_ns"`
	P90        time.Duration       `json:"p90_ns"`
	P99        time.Duration       `json:"p99_ns"`
	Max        time.Duration       `json:"max_ns"`
	Throughput float64             `json:"requests_per_sec"`
	// ErrorRate is the fraction of requests that failed hard: network
	// errors, 5xx, or invalid responses. 429s are deliberate load-shedding
	// and do NOT count — a shed request got a correct answer.
	ErrorRate      float64  `json:"error_rate"`
	InvalidSamples []string `json:"invalid_samples,omitempty"`
	// Slowest lists the k slowest requests with the trace ID the server
	// stamped on them (X-Request-ID), pasteable straight into the
	// server's /debug/requests flight recorder to pull the full span tree.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest identifies one of the run's slowest requests by trace ID.
type SlowRequest struct {
	Kind    Kind          `json:"kind"`
	Status  int           `json:"status"`
	Latency time.Duration `json:"latency_ns"`
	TraceID string        `json:"trace_id,omitempty"`
}

func (sc *Scorecard) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d requests in %s (%.1f req/s), error rate %.4f\n",
		sc.Total, sc.Duration.Round(time.Millisecond), sc.Throughput, sc.ErrorRate)
	fmt.Fprintf(&b, "  latency p50 %s  p90 %s  p99 %s  max %s\n",
		sc.P50.Round(time.Microsecond), sc.P90.Round(time.Microsecond),
		sc.P99.Round(time.Microsecond), sc.Max.Round(time.Microsecond))
	var codes []int
	for code := range sc.Status {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "  HTTP %d: %d\n", code, sc.Status[code])
	}
	if sc.NetErrors > 0 {
		fmt.Fprintf(&b, "  network errors: %d\n", sc.NetErrors)
	}
	if sc.Dropped > 0 {
		fmt.Fprintf(&b, "  dropped arrivals (open loop overload): %d\n", sc.Dropped)
	}
	if sc.Invalid > 0 {
		fmt.Fprintf(&b, "  INVALID responses: %d\n", sc.Invalid)
		for _, s := range sc.InvalidSamples {
			fmt.Fprintf(&b, "    %s\n", s)
		}
	}
	for _, k := range []Kind{KindPredict, KindBatch, KindEvents} {
		if ks, ok := sc.Kinds[k]; ok && ks.Count > 0 {
			fmt.Fprintf(&b, "  %-8s n=%-6d p50 %-10s p99 %-10s\n",
				k, ks.Count, ks.P50.Round(time.Microsecond), ks.P99.Round(time.Microsecond))
		}
	}
	if len(sc.Slowest) > 0 {
		fmt.Fprintf(&b, "  slowest requests (look up trace IDs on the server's /debug/requests):\n")
		for _, sr := range sc.Slowest {
			id := sr.TraceID
			if id == "" {
				id = "-"
			}
			fmt.Fprintf(&b, "    %-10s %-8s HTTP %d  trace %s\n",
				sr.Latency.Round(time.Microsecond), sr.Kind, sr.Status, id)
		}
	}
	return b.String()
}

// StrictValidate is the fault-window contract from ISSUE 6: every response
// must be (a) a 2xx carrying valid JSON, (b) a 429 carrying Retry-After,
// or (c) a structured JSON error with an "error" field. Anything else —
// HTML error pages, empty bodies, missing Retry-After — is invalid.
func StrictValidate(kind Kind, status int, retryAfter string, body []byte) error {
	switch {
	case status >= 200 && status < 300:
		if !json.Valid(body) {
			return fmt.Errorf("%s: 2xx with invalid JSON body", kind)
		}
		return nil
	case status == http.StatusTooManyRequests:
		if retryAfter == "" {
			return fmt.Errorf("%s: 429 without Retry-After", kind)
		}
		return nil
	default:
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			return fmt.Errorf("%s: HTTP %d without structured error body", kind, status)
		}
		return nil
	}
}

// handlerTransport is an http.RoundTripper that serves each request from
// an in-process handler via a response recorder.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// sample is one completed request.
type sample struct {
	kind    Kind
	status  int // 0 = network error
	latency time.Duration
	invalid string // non-empty = validation failure
	trace   string // server-stamped X-Request-ID, keys /debug/requests
}

// Run executes the load and scores it. It returns early (with the partial
// scorecard) when ctx is canceled.
func Run(ctx context.Context, cfg Config) (*Scorecard, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: need Duration or Requests")
	}
	if cfg.At <= 0 {
		return nil, fmt.Errorf("loadgen: At (prediction instant, unix seconds) required")
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	var issued atomic.Int64 // global request budget when Requests > 0
	var dropped atomic.Uint64
	var nextJobID atomic.Int64
	nextJobID.Store(cfg.JobIDBase)

	// Open loop: a pacer feeds tokens at the target rate; a full token
	// queue means the server (plus workers) can't keep up and arrivals are
	// dropped — visible in the scorecard rather than silently slowing down.
	var tokens chan struct{}
	if cfg.RatePerSec > 0 {
		tokens = make(chan struct{}, cfg.Concurrency*4)
		interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case tokens <- struct{}{}:
					default:
						dropped.Add(1)
					}
				}
			}
		}()
	}

	start := time.Now()
	results := make([][]sample, cfg.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			var buf []sample
			for {
				if ctx.Err() != nil {
					break
				}
				if cfg.Requests > 0 && issued.Add(1) > int64(cfg.Requests) {
					break
				}
				if tokens != nil {
					select {
					case <-ctx.Done():
						results[w] = buf
						return
					case <-tokens:
					}
				}
				buf = append(buf, cfg.doOne(ctx, rng, &nextJobID))
			}
			results[w] = buf
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	sc := score(all, elapsed)
	sc.Dropped = dropped.Load()
	return sc, nil
}

// pickKind draws a request family by weight.
func (c Config) pickKind(rng *rand.Rand) Kind {
	total := c.PredictWeight + c.BatchWeight + c.EventsWeight
	n := rng.Intn(total)
	if n < c.PredictWeight {
		return KindPredict
	}
	if n < c.PredictWeight+c.BatchWeight {
		return KindBatch
	}
	return KindEvents
}

func (c Config) synthJob(id int, rng *rand.Rand) trace.Job {
	return trace.Job{
		ID:        id,
		User:      rng.Intn(16),
		Partition: "shared",
		Submit:    c.At,
		ReqCPUs:   1 + rng.Intn(32),
		ReqMemGB:  float64(1 + rng.Intn(64)),
		ReqNodes:  1 + rng.Intn(4),
		TimeLimit: int64(600 * (1 + rng.Intn(12))),
		Priority:  int64(1000 + rng.Intn(1000)),
	}
}

// doOne builds, sends, and scores a single request.
func (c Config) doOne(ctx context.Context, rng *rand.Rand, nextJobID *atomic.Int64) sample {
	kind := c.pickKind(rng)
	var (
		path string
		body []byte
	)
	switch kind {
	case KindPredict:
		path = "/predict"
		body, _ = json.Marshal(map[string]any{"at": c.At, "job": c.synthJob(int(nextJobID.Add(1)), rng)})
	case KindBatch:
		path = "/predict/batch"
		jobs := make([]trace.Job, c.BatchSize)
		for i := range jobs {
			jobs[i] = c.synthJob(int(nextJobID.Add(1)), rng)
		}
		body, _ = json.Marshal(map[string]any{"at": c.At, "jobs": jobs})
	case KindEvents:
		path = "/events"
		id := int(nextJobID.Add(1))
		j := c.synthJob(id, rng)
		var lines bytes.Buffer
		sub, _ := json.Marshal(map[string]any{"type": "submit", "time": c.At, "job": j})
		elig, _ := json.Marshal(map[string]any{"type": "eligible", "time": c.At + 1, "job_id": id})
		lines.Write(sub)
		lines.WriteByte('\n')
		lines.Write(elig)
		lines.WriteByte('\n')
		body = lines.Bytes()
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return sample{kind: kind, status: 0, invalid: err.Error()}
	}
	if kind == KindEvents {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return sample{kind: kind, status: 0, latency: lat}
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	s := sample{kind: kind, status: resp.StatusCode, latency: lat,
		trace: resp.Header.Get("X-Request-ID")}
	if c.Validate != nil {
		if verr := c.Validate(kind, resp.StatusCode, resp.Header.Get("Retry-After"), respBody); verr != nil {
			s.invalid = verr.Error()
		}
	}
	return s
}

func quantiles(lat []time.Duration) (p50, p90, p99, max time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return at(0.50), at(0.90), at(0.99), lat[len(lat)-1]
}

// slowest returns the k slowest completed requests, slowest first, so
// the scorecard can hand their trace IDs to /debug/requests.
func slowest(all []sample, k int) []SlowRequest {
	done := make([]sample, 0, len(all))
	for _, s := range all {
		if s.status != 0 {
			done = append(done, s)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].latency > done[b].latency })
	if len(done) > k {
		done = done[:k]
	}
	out := make([]SlowRequest, len(done))
	for i, s := range done {
		out[i] = SlowRequest{Kind: s.kind, Status: s.status, Latency: s.latency, TraceID: s.trace}
	}
	return out
}

func score(all []sample, elapsed time.Duration) *Scorecard {
	sc := &Scorecard{
		Duration: elapsed,
		Status:   map[int]uint64{},
		Kinds:    map[Kind]*KindStats{},
	}
	var overall []time.Duration
	perKind := map[Kind][]time.Duration{}
	var hardFailures uint64
	for _, s := range all {
		sc.Total++
		ks := sc.Kinds[s.kind]
		if ks == nil {
			ks = &KindStats{}
			sc.Kinds[s.kind] = ks
		}
		ks.Count++
		if s.status == 0 {
			sc.NetErrors++
			ks.NetErrors++
			hardFailures++
			continue
		}
		sc.Status[s.status]++
		overall = append(overall, s.latency)
		perKind[s.kind] = append(perKind[s.kind], s.latency)
		if s.invalid != "" {
			sc.Invalid++
			ks.Invalid++
			hardFailures++
			if len(sc.InvalidSamples) < 5 {
				sc.InvalidSamples = append(sc.InvalidSamples, s.invalid)
			}
		} else if s.status >= 500 {
			hardFailures++
		}
	}
	sc.P50, sc.P90, sc.P99, sc.Max = quantiles(overall)
	for k, lat := range perKind {
		ks := sc.Kinds[k]
		ks.P50, ks.P90, ks.P99, ks.Max = quantiles(lat)
	}
	sc.Slowest = slowest(all, 5)
	if sc.Total > 0 {
		sc.ErrorRate = float64(hardFailures) / float64(sc.Total)
	}
	if elapsed > 0 {
		sc.Throughput = float64(sc.Total) / elapsed.Seconds()
	}
	return sc
}
