package trout_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	trout "repro"
	"repro/internal/obs"
)

// replayBody is a request body that can be rewound, so a measured request
// reuses the test's request object and costs only what the route costs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// costWriter is a reusable ResponseWriter: its header map and body buffer
// survive requests, so they count for the test and not for the route. It
// takes a read deadline, as net/http's writer does, so the deadline
// middleware pays what it pays in the daemon and not an error's worth.
type costWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *costWriter) Header() http.Header { return w.h }
func (w *costWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *costWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}
func (w *costWriter) SetReadDeadline(time.Time) error { return nil }

// routeCost is one route's pinned cost per request: heap allocations and
// bytes allocated, both measured over runs requests after a warm-up and
// both ceilings. A change that moves a pin edits this table and says in
// CHANGES.md which pin moved and why.
type routeCost struct {
	name         string
	method, path string
	body         func(i int) string // i-th request's body; nil sends none
	want         string             // in every 200 reply, so the path measured is the one named
	runs         int
	allocs       float64
	bytes        float64
}

// measureRoute serves rc.runs+1 requests (the first warms pools and memos)
// and returns the mean allocations and bytes of the last rc.runs.
func measureRoute(t *testing.T, h http.Handler, rc routeCost) (allocs, bytesPer float64) {
	t.Helper()
	req, err := http.NewRequest(rc.method, rc.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.RemoteAddr = "127.0.0.1:1"
	body := new(replayBody)
	bodies := make([][]byte, rc.runs+1)
	for i := range bodies {
		if rc.body != nil {
			bodies[i] = []byte(rc.body(i))
		}
	}
	w := &costWriter{h: http.Header{}}
	serve := func(i int) {
		clear(w.h)
		w.code, w.body = 0, w.body[:0]
		body.Reset(bodies[i])
		req.Body, req.ContentLength = body, int64(len(bodies[i]))
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || !bytes.Contains(w.body, []byte(rc.want)) {
			t.Fatalf("%s: request %d answered %d, want 200 with %s: %s", rc.name, i, w.code, rc.want, w.body)
		}
	}
	serve(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= rc.runs; i++ {
		serve(i)
	}
	runtime.ReadMemStats(&after)
	n := float64(rc.runs)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestRouteCost pins, per route served in process through
// Service.Handler() as the daemon wires it (JSON access log, default
// tracer, float32 inference), the allocations and bytes of one request,
// and holds a batch's allocations flat in its size: the predict path
// draws its scratch from one pooled arena, so 16 jobs cost at most two
// objects more than one.
func TestRouteCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts")
	}
	q := liveQueueFixture(t)
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	newHandler := func() http.Handler {
		svc, err := trout.NewServiceWith(fastBundle(t), q.Trace,
			trout.ServiceConfig{Logger: logger, FastInference: true})
		if err != nil {
			t.Fatal(err)
		}
		return svc.Handler()
	}

	pending := q.Pending[len(q.Pending)/2]
	whatIf := fmt.Sprintf(`{"user":%d,"partition":%q,"req_cpus":%d,"req_mem_gb":%v,"req_nodes":%d,"time_limit":%d,"priority":%d}`,
		pending.User, pending.Partition, pending.ReqCPUs, pending.ReqMemGB, pending.ReqNodes, pending.TimeLimit, pending.Priority)
	byID := fmt.Sprintf(`{"id":%d,"user":%d,"partition":%q,"req_cpus":%d,"req_mem_gb":%v,"req_nodes":%d,"time_limit":%d,"priority":%d,"submit":%d,"eligible":%d}`,
		pending.ID, pending.User, pending.Partition, pending.ReqCPUs, pending.ReqMemGB, pending.ReqNodes, pending.TimeLimit, pending.Priority, pending.Submit, pending.Eligible)
	batch := func(n int) func(int) string {
		jobs := make([]string, n)
		for i := range jobs {
			p := q.Pending[i*len(q.Pending)/n]
			jobs[i] = fmt.Sprintf(`{"user":%d,"partition":%q,"req_cpus":%d,"req_mem_gb":%v,"req_nodes":%d,"time_limit":%d,"priority":%d}`,
				p.User, p.Partition, p.ReqCPUs, p.ReqMemGB, p.ReqNodes, p.TimeLimit, p.Priority)
		}
		body := fmt.Sprintf(`{"at":%d,"jobs":[%s]}`, q.Now, strings.Join(jobs, ","))
		return func(int) string { return body }
	}
	fixed := func(body string) func(int) string { return func(int) string { return body } }
	// events submits lines fresh jobs per request, at the engine clock,
	// with IDs from base up.
	events := func(lines, base int) func(int) string {
		return func(i int) string {
			var b strings.Builder
			for k := 0; k < lines; k++ {
				fmt.Fprintf(&b, `{"type":"submit","time":%d,"job":{"id":%d,"user":3,"partition":%q,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n",
					q.Now, base+i*lines+k, pending.Partition)
			}
			return b.String()
		}
	}

	// The last two columns are allocations and bytes, both ceilings. Before
	// the pooled predict arena and trace buffer, a batch of 16 took 99.5
	// allocations and 21.5 KB, a single predict 36 and 4.3 KB; before the
	// shared Content-Type value, each route took one allocation more.
	const nn = `"tier":"nn"`
	predict := []routeCost{
		{"POST /predict what-if", "POST", "/predict", fixed(fmt.Sprintf(`{"at":%d,"job":%s}`, q.Now, whatIf)), nn, 200, 23, 2200},
		{"POST /predict by ID", "POST", "/predict", fixed(fmt.Sprintf(`{"at":%d,"job":%s}`, q.Now, byID)), nn, 200, 23, 2200},
		{"GET /predict?job=", "GET", fmt.Sprintf("/predict?job=%d", pending.ID), nil, nn, 200, 28, 2500},
		{"POST /predict/batch of 1", "POST", "/predict/batch", batch(1), nn, 200, 23, 2200},
		{"POST /predict/batch of 16", "POST", "/predict/batch", batch(16), nn, 200, 23, 2200},
		{"GET /features", "GET", fmt.Sprintf("/features?job=%d", pending.ID), nil, `"Priority":`, 200, 100, 7000},
	}
	// The 1 MiB scanner buffer (ROADMAP item 1(g)) is most of either
	// /events request, pinned as it is.
	ingest := []routeCost{
		{"POST /events of 1", "POST", "/events", events(1, 50_000_000), `"applied":1,`, 50, 30, 1_060_000},
		{"POST /events of 256", "POST", "/events", events(256, 60_000_000), `"applied":256,`, 10, 1059, 1_250_000},
	}
	got := map[string]float64{}
	check := func(h http.Handler, table []routeCost) {
		for _, rc := range table {
			allocs, bytesPer := measureRoute(t, h, rc)
			got[rc.name] = allocs
			t.Logf("%-26s %7.1f allocs %10.0f B", rc.name, allocs, bytesPer)
			if allocs > rc.allocs {
				t.Errorf("%s: %.1f allocations per request, pinned at %v", rc.name, allocs, rc.allocs)
			}
			if bytesPer > rc.bytes {
				t.Errorf("%s: %.0f bytes per request, pinned at %v", rc.name, bytesPer, rc.bytes)
			}
		}
	}
	check(newHandler(), predict)
	// The ingest routes grow the queue, so they get a service of their own.
	check(newHandler(), ingest)

	if d := got["POST /predict/batch of 16"] - got["POST /predict/batch of 1"]; d > 2 {
		t.Errorf("a batch of 16 allocates %.1f objects more than a batch of 1, want at most 2", d)
	}
}
