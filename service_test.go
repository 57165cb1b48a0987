package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	trout "repro"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// liveQueue is a queue state with work in it: the shared experiment's
// trace cut at a mid-trace instant, every interval still open at the cut
// left open (Start/End zeroed). A service seeded from Trace has its engine
// clock at Now and tracks Pending as pending — what GET /predict?job= and
// /features?job= need, and what a finished trace never offers.
type liveQueue struct {
	Trace   *trout.Trace
	Now     int64
	Pending []trace.Job // in trace order
}

var (
	lqOnce sync.Once
	lqMemo *liveQueue
)

func liveQueueFixture(t *testing.T) *liveQueue {
	t.Helper()
	e := sharedFixture(t)
	lqOnce.Do(func() {
		// Cut where the queue is deepest among sampled eligibility
		// instants of the trace's middle half.
		jobs := e.Trace.Jobs
		var cut int64
		deepest := -1
		for i := len(jobs) / 4; i < 3*len(jobs)/4; i += 50 {
			at := jobs[i].Eligible
			if n := len(trout.SnapshotAtInstant(e.Trace, at, trace.Job{}).Pending); n > deepest {
				cut, deepest = at, n
			}
		}
		q := &liveQueue{Trace: &trout.Trace{}, Now: cut}
		for _, j := range jobs {
			if j.Submit > cut {
				continue
			}
			if j.Eligible > cut {
				j.Eligible = 0
			}
			if j.Start > cut {
				j.Start = 0
			}
			if j.End > cut {
				j.End, j.State = 0, ""
			}
			q.Trace.Jobs = append(q.Trace.Jobs, j)
		}
		q.Pending = trout.SnapshotAtInstant(q.Trace, cut, trace.Job{}).Pending
		lqMemo = q
	})
	if len(lqMemo.Pending) < 3 {
		t.Fatalf("live-queue fixture has only %d pending jobs at %d", len(lqMemo.Pending), lqMemo.Now)
	}
	return lqMemo
}

// testService spins up the dashboard service over the shared experiment's
// complete trace (every job finished: an empty queue, engine clock at the
// trace's end) and the memoized resilientBundle — training once for the
// whole suite; every test still gets its own Service (state and counters
// are per-Service, and tests that poison the bundle copy it first). Tests
// that need queued jobs boot from liveQueueFixture via resilientServer.
func testService(t *testing.T) (*httptest.Server, *fixture) {
	t.Helper()
	e := sharedFixture(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, e
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// postEvents uploads a JSONL event body and returns the decoded ack.
func postEvents(t *testing.T, url, body string) (ack struct {
	Applied  int   `json:"applied"`
	Rejected int   `json:"rejected"`
	BadLines int   `json:"bad_lines"`
	Now      int64 `json:"now"`
}) {
	t.Helper()
	resp, err := http.Post(url+"/events", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

type healthReply struct {
	Status        string  `json:"status"`
	CutoffMinutes float64 `json:"cutoff_minutes"`
	NumFeatures   int     `json:"num_features"`
	QueueJobs     int     `json:"queue_jobs"`
	Live          struct {
		Now     int64 `json:"now"`
		Tracked int   `json:"tracked"`
	} `json:"live"`
}

func TestServiceHealth(t *testing.T) {
	srv, svc := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	var h healthReply
	if code := getJSON(t, srv.URL+"/health", &h); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if h.Status != "ok" || h.CutoffMinutes != 10 || h.NumFeatures != len(trout.FeatureNames) {
		t.Fatalf("health = %+v", h)
	}
	if want := svc.LiveStore().Engine().Stats().Tracked; want == 0 || h.QueueJobs != want {
		t.Fatalf("queue jobs %d, engine tracks %d", h.QueueJobs, want)
	}

	// An events-fed service never saw a bulk upload: queue_jobs used to
	// read 0 beside live.tracked 1.
	fed, err := trout.NewServiceWith(resilientBundle(t), nil, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(fed.Handler())
	t.Cleanup(fsrv.Close)
	if ack := postEvents(t, fsrv.URL, cacheEventsBody(9400001, 5000)); ack.Applied != 2 {
		t.Fatalf("events ack %+v", ack)
	}
	h = healthReply{}
	getJSON(t, fsrv.URL+"/health", &h)
	if h.QueueJobs != 1 || h.Live.Tracked != 1 {
		t.Fatalf("events-fed health: queue_jobs %d, live.tracked %d, want 1/1", h.QueueJobs, h.Live.Tracked)
	}
}

func TestServicePredictExistingJob(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	q := liveQueueFixture(t)
	var p struct {
		Prob    float64 `json:"prob"`
		Message string  `json:"message"`
		Pending int     `json:"pending_in_snapshot"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, q.Pending[0].ID), &p); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if p.Prob < 0 || p.Prob > 1 {
		t.Fatalf("prob %v", p.Prob)
	}
	if !strings.Contains(p.Message, "Predicted") {
		t.Fatalf("message %q", p.Message)
	}
	if p.Pending != len(q.Pending) {
		t.Fatalf("pending_in_snapshot %d, fixture has %d", p.Pending, len(q.Pending))
	}
}

func TestServicePredictHypothetical(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	at := liveQueueFixture(t).Now
	body := fmt.Sprintf(`{"at":%d,"job":{"user":3,"partition":"shared","req_cpus":16,"req_mem_gb":32,"req_nodes":1,"time_limit":14400,"priority":5000}}`, at)
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("hypothetical predict status %d", resp.StatusCode)
	}
	var p struct {
		Message string `json:"message"`
		Source  string `json:"snapshot_source"`
		Pending int    `json:"pending_in_snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Message == "" {
		t.Fatal("empty message")
	}
	if p.Source != "live" || p.Pending == 0 {
		t.Fatalf("answered from source %q with %d pending", p.Source, p.Pending)
	}
}

// errorReply issues a request expected to fail (a GET when body is empty,
// else a JSON POST) and returns its status and structured error body.
func errorReply(t *testing.T, url, body string) (int, resilience.ErrorBody) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb resilience.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("status %d without a JSON error body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, eb
}

func TestServicePredictErrors(t *testing.T) {
	srv, e := testService(t)
	var x struct{}
	if code := getJSON(t, srv.URL+"/predict?job=notanumber", &x); code != http.StatusBadRequest {
		t.Fatalf("bad job id gave %d", code)
	}
	// The engine answers only for jobs it tracks as pending: an unknown ID
	// and a finished job the engine still retains are both its 404, on
	// /predict and /features alike.
	finished := e.Trace.Jobs[len(e.Trace.Jobs)-1].ID
	for _, id := range []int{99999999, finished} {
		for _, path := range []string{"/predict", "/features"} {
			code, eb := errorReply(t, fmt.Sprintf("%s%s?job=%d", srv.URL, path, id), "")
			if code != http.StatusNotFound || !strings.Contains(eb.Error, "not a tracked pending job") {
				t.Fatalf("%s?job=%d gave %d %q, want the engine's 404", path, id, code, eb.Error)
			}
		}
	}
	// An instant the engine has pruned past is refused, not answered from
	// whatever queue remains — single and batch, naming at and the clock.
	var h healthReply
	getJSON(t, srv.URL+"/health", &h)
	now := h.Live.Now
	stale := now - 3601
	job := `{"user":3,"partition":"shared","req_cpus":16,"req_mem_gb":32,"req_nodes":1,"time_limit":14400}`
	for path, body := range map[string]string{
		"/predict":       fmt.Sprintf(`{"at":%d,"job":%s}`, stale, job),
		"/predict/batch": fmt.Sprintf(`{"at":%d,"jobs":[%s]}`, stale, job),
	} {
		code, eb := errorReply(t, srv.URL+path, body)
		if code != http.StatusUnprocessableEntity || eb.Status != code ||
			!strings.Contains(eb.Error, fmt.Sprint(stale)) || !strings.Contains(eb.Error, fmt.Sprint(now)) {
			t.Fatalf("POST %s at clock-3601 gave %d %+v, want 422 naming %d and %d", path, code, eb, stale, now)
		}
		// The window's near edge still answers.
		edge := strings.Replace(body, fmt.Sprint(stale), fmt.Sprint(now-3600), 1)
		if code := postJSON(t, srv.URL+path, json.RawMessage(edge), nil); code != http.StatusOK {
			t.Fatalf("POST %s at clock-3600 gave %d, want 200", path, code)
		}
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body gave %d", resp.StatusCode)
	}
	// Missing `at`.
	resp, err = http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"job":{"partition":"shared"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing at gave %d", resp.StatusCode)
	}
}

func TestServiceStateUpdate(t *testing.T) {
	srv, e := testService(t)
	// Replace the state with a 100-job slice encoded as JSONL.
	sub := &trout.Trace{Jobs: e.Trace.Jobs[:100]}
	var buf bytes.Buffer
	if err := sub.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/state", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("state update status %d", resp.StatusCode)
	}
	var sr struct {
		Jobs        int `json:"jobs"`
		LiveActive  int `json:"live_active"`
		LiveHistory int `json:"live_history"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	var h healthReply
	getJSON(t, srv.URL+"/health", &h)
	// The upload replaced the engine's state: what it tracks now is what
	// the seed kept of the 100 rows, not the 7,000-job boot trace.
	if sr.Jobs != 100 || h.QueueJobs == 0 || h.QueueJobs != sr.LiveActive+sr.LiveHistory {
		t.Fatalf("after update: state reply %+v, queue_jobs %d", sr, h.QueueJobs)
	}
}

func TestServiceFeaturesEndpoint(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	jobID := liveQueueFixture(t).Pending[1].ID
	var feats map[string]float64
	if code := getJSON(t, fmt.Sprintf("%s/features?job=%d", srv.URL, jobID), &feats); code != 200 {
		t.Fatalf("features status %d", code)
	}
	if len(feats) != len(trout.FeatureNames) {
		t.Fatalf("%d features", len(feats))
	}
	if _, ok := feats["Priority"]; !ok {
		t.Fatal("missing Priority feature")
	}
}

func TestServiceMethodGuards(t *testing.T) {
	srv, _ := testService(t)
	resp, err := http.Post(srv.URL+"/health", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /health gave %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /state gave %d", resp.StatusCode)
	}
}

// TestServiceConcurrentAccess hammers predictions and state swaps together;
// run under -race this validates the service's locking.
func TestServiceConcurrentAccess(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	q := liveQueueFixture(t)
	jobID := q.Pending[0].ID
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			if err := q.Trace.WriteJSONL(&buf); err != nil {
				return
			}
			resp, err := http.Post(srv.URL+"/state", "application/jsonl", &buf)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := trout.NewServiceWith(nil, nil, trout.ServiceConfig{}); err == nil {
		t.Fatal("nil bundle accepted")
	}
}

// TestNewServiceRefusesDegenerateSLO pins the SLO guard: a target of 1
// has no error budget (its burn rate is NaN, so /health cannot encode and
// the alert reads "ok" through a full outage) and one above 1 a negative
// burn that never pages, so the service refuses both, naming the troutd
// flag. The daemon's negative "disable" value still boots.
func TestNewServiceRefusesDegenerateSLO(t *testing.T) {
	b := resilientBundle(t)
	for _, c := range []struct {
		slo  obs.SLOConfig
		flag string
	}{
		{obs.SLOConfig{AvailabilityTarget: 1}, "-slo-availability"},
		{obs.SLOConfig{AvailabilityTarget: 1.5}, "-slo-availability"},
		{obs.SLOConfig{AvailabilityTarget: math.NaN()}, "-slo-availability"},
		{obs.SLOConfig{LatencyTarget: 1}, "-slo-latency-target"},
		{obs.SLOConfig{LatencyTarget: -0.5}, "-slo-latency-target"},
		{obs.SLOConfig{LatencyThreshold: -time.Second}, "-slo-latency-threshold"},
	} {
		_, err := trout.NewServiceWith(b, nil, trout.ServiceConfig{SLO: c.slo})
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%+v: err = %v, want a refusal naming %s", c.slo, err, c.flag)
		}
	}
	for _, slo := range []obs.SLOConfig{
		{Disabled: true, AvailabilityTarget: -1}, // troutd -slo-availability -1
		{AvailabilityTarget: 0.5, LatencyTarget: 0.9999},
	} {
		svc, err := trout.NewServiceWith(b, nil, trout.ServiceConfig{SLO: slo})
		if err != nil {
			t.Fatalf("%+v refused: %v", slo, err)
		}
		srv := httptest.NewServer(svc.Handler())
		resp, err := http.Get(srv.URL + "/predict?job=1") // a 404 the SLO observes
		if err == nil {
			resp.Body.Close()
		}
		var h map[string]any
		if code := getJSON(t, srv.URL+"/health", &h); code != http.StatusOK {
			t.Errorf("%+v: /health answered %d", slo, code)
		}
		srv.Close()
	}
}
