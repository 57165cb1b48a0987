// The smoke tests' request driver: a fixed-count closed loop of mixed
// /predict (70 %), /predict/batch of 8 (20 %) and /events submit+eligible
// pairs (10 %), every response judged by the strict fault-window contract.
// Not a load generator — bench/ is the only source of performance numbers.
package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// strictValidate is the fault-window contract: every response must be (a) a
// 2xx carrying valid JSON, (b) a 429 carrying Retry-After, or (c) a
// structured JSON error with an "error" field. Anything else — HTML error
// pages, empty bodies, a 429 without Retry-After — is a correctness
// failure, not just an error.
func strictValidate(path string, status int, retryAfter string, body []byte) error {
	switch {
	case status >= 200 && status < 300:
		if !json.Valid(body) {
			return fmt.Errorf("%s: 2xx with invalid JSON body", path)
		}
	case status == http.StatusTooManyRequests:
		if retryAfter == "" {
			return fmt.Errorf("%s: 429 without Retry-After", path)
		}
	default:
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			return fmt.Errorf("%s: HTTP %d without structured error body", path, status)
		}
	}
	return nil
}

func TestStrictValidateContract(t *testing.T) {
	for _, c := range []struct {
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
	} {
		if err := strictValidate("/predict", c.status, c.retryAfter, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s: err=%v want ok=%v", c.name, err, c.ok)
		}
	}
}

// smokeRun is what smokeLoad saw.
type smokeRun struct {
	Total   int
	Status  map[int]int
	Invalid []string // strict-contract violations and transport errors
	P99     time.Duration
}

// smokeLoad issues exactly requests requests against baseURL from workers
// goroutines. at is the prediction instant sent with predict bodies and
// stamped on submitted events (the target's engine clock, or it answers
// 422); jobIDBase namespaces the synthetic job IDs.
func smokeLoad(t *testing.T, baseURL string, requests, workers int, at, jobIDBase int64) smokeRun {
	t.Helper()
	type sample struct {
		status  int
		latency time.Duration
		invalid string
	}
	client := &http.Client{Timeout: 10 * time.Second}
	var issued, nextID atomic.Int64
	nextID.Store(jobIDBase)
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1 + int64(w)*7919))
			job := func() trace.Job {
				return trace.Job{
					ID: int(nextID.Add(1)), User: rng.Intn(16), Partition: "shared", Submit: at,
					ReqCPUs: 1 + rng.Intn(32), ReqMemGB: float64(1 + rng.Intn(64)), ReqNodes: 1 + rng.Intn(4),
					TimeLimit: int64(600 * (1 + rng.Intn(12))), Priority: int64(1000 + rng.Intn(1000)),
				}
			}
			for issued.Add(1) <= int64(requests) {
				path, ctype := "/predict", "application/json"
				var body []byte
				switch n := rng.Intn(10); {
				case n < 7:
					body, _ = json.Marshal(map[string]any{"at": at, "job": job()})
				case n < 9:
					path = "/predict/batch"
					jobs := make([]trace.Job, 8)
					for i := range jobs {
						jobs[i] = job()
					}
					body, _ = json.Marshal(map[string]any{"at": at, "jobs": jobs})
				default:
					path, ctype = "/events", "application/x-ndjson"
					j := job()
					sub, _ := json.Marshal(map[string]any{"type": "submit", "time": at, "job": j})
					elig, _ := json.Marshal(map[string]any{"type": "eligible", "time": at + 1, "job_id": j.ID})
					body = append(append(append(sub, '\n'), elig...), '\n')
				}
				t0 := time.Now()
				resp, err := client.Post(baseURL+path, ctype, bytes.NewReader(body))
				if err != nil {
					perWorker[w] = append(perWorker[w], sample{invalid: err.Error()})
					continue
				}
				respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
				s := sample{status: resp.StatusCode, latency: time.Since(t0)}
				if err := strictValidate(path, resp.StatusCode, resp.Header.Get("Retry-After"), respBody); err != nil {
					s.invalid = err.Error()
				}
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	run := smokeRun{Status: map[int]int{}}
	var lat []time.Duration
	for _, samples := range perWorker {
		for _, s := range samples {
			run.Total++
			if s.invalid != "" {
				run.Invalid = append(run.Invalid, s.invalid)
			}
			if s.status != 0 {
				run.Status[s.status]++
				lat = append(lat, s.latency)
			}
		}
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	if len(lat) > 0 {
		run.P99 = lat[int(0.99*float64(len(lat)-1))]
	}
	return run
}
