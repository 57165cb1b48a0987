package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	trout "repro"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// seqPredict is the decoded POST /predict payload used for equivalence
// checks against the batch endpoint.
type seqPredict struct {
	Long    bool    `json:"long"`
	Prob    float64 `json:"prob"`
	Minutes float64 `json:"minutes"`
	Message string  `json:"message"`
	Tier    string  `json:"tier"`
	Source  string  `json:"snapshot_source"`
	Pending int     `json:"pending_in_snapshot"`
	Running int     `json:"running_in_snapshot"`
}

type batchReply struct {
	At      int64  `json:"at"`
	Source  string `json:"snapshot_source"`
	Pending int    `json:"pending_in_snapshot"`
	Running int    `json:"running_in_snapshot"`
	Results []struct {
		Long    bool    `json:"long"`
		Prob    float64 `json:"prob"`
		Minutes float64 `json:"minutes"`
		Message string  `json:"message"`
		Tier    string  `json:"tier"`
		Error   string  `json:"error"`
	} `json:"results"`
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// batchFixtureJobs derives hypothetical jobs from trace jobs spread across
// the fixture, varied enough to hit both classifier verdicts.
func batchFixtureJobs(e *trout.Experiment, n int) []trace.Job {
	jobs := make([]trace.Job, n)
	for i := range jobs {
		tmpl := e.Trace.Jobs[(i+1)*len(e.Trace.Jobs)/(n+1)]
		jobs[i] = trace.Job{
			User: tmpl.User, Partition: tmpl.Partition,
			ReqCPUs: tmpl.ReqCPUs, ReqMemGB: tmpl.ReqMemGB,
			ReqNodes: tmpl.ReqNodes, ReqGPUs: tmpl.ReqGPUs,
			TimeLimit: tmpl.TimeLimit, Priority: tmpl.Priority, QOS: tmpl.QOS,
		}
	}
	return jobs
}

// checkBatchMatchesSequential asserts POST /predict/batch answers exactly
// what n sequential POST /predict calls answer for the same jobs at the
// same instant — values, tier labels, messages, and snapshot source all
// bit-identical.
func checkBatchMatchesSequential(t *testing.T, url string, at int64, jobs []trace.Job) {
	t.Helper()
	want := make([]seqPredict, len(jobs))
	for i, j := range jobs {
		code := postJSON(t, url+"/predict", map[string]any{"at": at, "job": j}, &want[i])
		if code != http.StatusOK {
			t.Fatalf("sequential predict %d status %d", i, code)
		}
	}

	var got batchReply
	if code := postJSON(t, url+"/predict/batch", map[string]any{"at": at, "jobs": jobs}, &got); code != http.StatusOK {
		t.Fatalf("batch predict status %d", code)
	}
	if len(got.Results) != len(jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(got.Results), len(jobs))
	}
	for i, w := range want {
		g := got.Results[i]
		if g.Error != "" {
			t.Fatalf("job %d: batch error %q", i, g.Error)
		}
		if g.Long != w.Long || g.Prob != w.Prob || g.Minutes != w.Minutes ||
			g.Message != w.Message || g.Tier != w.Tier {
			t.Fatalf("job %d mismatch:\n batch: %+v\n  seq: %+v", i, g, w)
		}
		if got.Source != w.Source || got.Pending != w.Pending || got.Running != w.Running {
			t.Fatalf("job %d snapshot mismatch: batch %s/%d/%d vs seq %s/%d/%d", i,
				got.Source, got.Pending, got.Running, w.Source, w.Pending, w.Running)
		}
	}
}

// TestServiceBatchMatchesSequential is the equivalence guarantee for the
// batch endpoint on a queue with pending and running jobs, at both ends of
// the instants the engine answers: its clock, and the far edge of the
// one-hour window behind it.
func TestServiceBatchMatchesSequential(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	jobs := batchFixtureJobs(sharedExperiment(t), 12)
	now := liveQueueFixture(t).Now

	t.Run("behind-clock", func(t *testing.T) {
		checkBatchMatchesSequential(t, srv.URL, now-3600, jobs)
	})
	t.Run("live", func(t *testing.T) {
		checkBatchMatchesSequential(t, srv.URL, now, jobs)
	})
}

// TestServiceBatchFallbackMatchesSequential repeats the equivalence check
// with a poisoned classifier: every row drops out of the NN mini-batch to
// the baseline tier, and the per-row fallback must still answer exactly
// like the single-job path.
func TestServiceBatchFallbackMatchesSequential(t *testing.T) {
	e := sharedExperiment(t)
	srv, svc := resilientServer(t, poisonedClassifier(t, resilientBundle(t)), trout.ServiceConfig{})
	jobs := batchFixtureJobs(e, 6)
	at := liveQueueFixture(t).Now
	checkBatchMatchesSequential(t, srv.URL, at, jobs)

	var got batchReply
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": at, "jobs": jobs}, &got); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	for i, g := range got.Results {
		if g.Tier != resilience.TierBaseline {
			t.Fatalf("poisoned batch job %d answered by %q", i, g.Tier)
		}
	}
	if c := svc.FallbackCounters(); c[resilience.TierBaseline] == 0 {
		t.Fatalf("tier counters after batch: %v", c)
	}
}

// TestServiceBatchChunkBoundaries covers what only a multi-chunk batch
// reaches now that a single predict is a chunk of one: 40 jobs are three
// model chunks (16 + 16 + 8), of both classifier verdicts, and the first
// row of the second chunk names an unknown partition. Every other row must
// answer exactly what it answers alone, and the bad row is an item error
// there and a 400 alone.
func TestServiceBatchChunkBoundaries(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	jobs := batchFixtureJobs(sharedExperiment(t), 40)
	const bad = 16
	jobs[bad].Partition = "no-such-partition"
	at := liveQueueFixture(t).Now

	var got batchReply
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": at, "jobs": jobs}, &got); code != http.StatusOK {
		t.Fatalf("batch predict status %d", code)
	}
	if len(got.Results) != len(jobs) {
		t.Fatalf("batch returned %d results for %d jobs", len(got.Results), len(jobs))
	}
	var long, short int
	for i, j := range jobs {
		var w seqPredict
		code := postJSON(t, srv.URL+"/predict", map[string]any{"at": at, "job": j}, &w)
		g := got.Results[i]
		if i == bad {
			if code != http.StatusBadRequest || g.Error == "" || g.Tier != "" {
				t.Fatalf("bad row: single status %d, batch item %+v", code, g)
			}
			continue
		}
		if code != http.StatusOK || g.Error != "" {
			t.Fatalf("job %d: single status %d, batch error %q", i, code, g.Error)
		}
		if g.Long != w.Long || g.Prob != w.Prob || g.Minutes != w.Minutes ||
			g.Message != w.Message || g.Tier != w.Tier {
			t.Fatalf("job %d mismatch:\n batch: %+v\n  seq: %+v", i, g, w)
		}
		if g.Long {
			long++
		} else {
			short++
		}
	}
	if long == 0 || short == 0 {
		t.Fatalf("fixture is one-sided (%d long, %d short); the regressor's subset copy is untested", long, short)
	}
}

// TestBundleBatchPoisonedRow: one NaN feature row inside a 40-snapshot
// batch drops alone to a lower tier — its chunk neighbours keep their NN
// answers — and every result is what the snapshot gets on its own.
func TestBundleBatchPoisonedRow(t *testing.T) {
	e := sharedExperiment(t)
	b := resilientBundle(t)
	snaps := make([]*trout.Snapshot, 40)
	for i := range snaps {
		snap, err := trout.SnapshotFromTrace(e.Trace, e.Trace.Jobs[(i+1)*len(e.Trace.Jobs)/(len(snaps)+1)].ID)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
	}
	const poisoned = 31 // last row of the second chunk
	snaps[poisoned].Target.ReqMemGB = math.NaN()

	for i, got := range b.PredictBatchWithFallback(snaps) {
		want, err := b.PredictWithFallback(snaps[i])
		if err != nil || got.Err != nil {
			t.Fatalf("snapshot %d: single err %v, batch err %v", i, err, got.Err)
		}
		if got.TieredPrediction != want {
			t.Fatalf("snapshot %d: batch %+v != single %+v", i, got.TieredPrediction, want)
		}
		if (got.Tier == resilience.TierNN) == (i == poisoned) {
			t.Fatalf("snapshot %d answered by tier %q", i, got.Tier)
		}
	}
}

// TestServiceBatchValidation pins the endpoint's input checks.
func TestServiceBatchValidation(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	job := batchFixtureJobs(sharedExperiment(t), 1)[0]
	at := liveQueueFixture(t).Now

	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing at", map[string]any{"jobs": []trace.Job{job}}, http.StatusBadRequest},
		{"negative at", map[string]any{"at": -5, "jobs": []trace.Job{job}}, http.StatusBadRequest},
		{"no jobs", map[string]any{"at": at}, http.StatusBadRequest},
		{"negative job id", map[string]any{"at": at, "jobs": []map[string]any{{"id": -7, "partition": job.Partition}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := postJSON(t, srv.URL+"/predict/batch", c.body, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}

	resp, err := http.Get(srv.URL + "/predict/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict/batch gave %d", resp.StatusCode)
	}
}

// TestServiceBatchSizeLimit caps batches at MaxBatchJobs with a 413.
func TestServiceBatchSizeLimit(t *testing.T) {
	e := sharedExperiment(t)
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{MaxBatchJobs: 4})
	jobs := batchFixtureJobs(e, 5)
	at := liveQueueFixture(t).Now
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": at, "jobs": jobs}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch status %d, want 413", code)
	}
	var got batchReply
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": at, "jobs": jobs[:4]}, &got); code != http.StatusOK {
		t.Fatalf("at-limit batch status %d", code)
	}
}

// TestServicePredictNegativeInputs pins the single-job endpoints' rejection
// of negative instants and job IDs with structured 400s.
func TestServicePredictNegativeInputs(t *testing.T) {
	srv, e := testService(t)
	job := batchFixtureJobs(e, 1)[0]

	if code := postJSON(t, srv.URL+"/predict", map[string]any{"at": -100, "job": job}, nil); code != http.StatusBadRequest {
		t.Errorf("POST at<0 gave %d, want 400", code)
	}
	if code := postJSON(t, srv.URL+"/predict",
		map[string]any{"at": 1700000000, "job": map[string]any{"id": -3, "partition": job.Partition}}, nil); code != http.StatusBadRequest {
		t.Errorf("POST negative job id gave %d, want 400", code)
	}
	for _, path := range []string{"/predict?job=-5", "/features?job=-1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var eb resilience.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s gave %d, want 400", path, resp.StatusCode)
		}
		if err != nil || !strings.Contains(eb.Error, "non-negative") {
			t.Errorf("%s error body %+v (%v)", path, eb, err)
		}
	}
}

// TestServiceConcurrentStateSwapAndBatch drives POST /state swaps against
// GET/POST /predict and /predict/batch concurrently; under -race this
// validates that an engine reseed is one atomic step for readers. The GET
// target is pending in the full upload and absent from the truncated one,
// so it legitimately answers 200 or 404 depending on which state it meets.
func TestServiceConcurrentStateSwapAndBatch(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	q := liveQueueFixture(t)
	jobs := batchFixtureJobs(sharedExperiment(t), 4)
	jobID := q.Pending[len(q.Pending)-1].ID
	at := q.Now

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID))
				if err == nil {
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("GET predict status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
				raw, _ := json.Marshal(map[string]any{"at": at, "jobs": jobs})
				bresp, err := http.Post(srv.URL+"/predict/batch", "application/json", bytes.NewReader(raw))
				if err == nil {
					if bresp.StatusCode != http.StatusOK {
						t.Errorf("batch status %d", bresp.StatusCode)
					}
					bresp.Body.Close()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			// Alternate between a truncated and the full trace so swaps
			// genuinely change the engine seed.
			n := len(q.Trace.Jobs)
			if i%2 == 0 {
				n = 100
			}
			sub := &trout.Trace{Jobs: q.Trace.Jobs[:n]}
			var buf bytes.Buffer
			if err := sub.WriteJSONL(&buf); err != nil {
				return
			}
			resp, err := http.Post(srv.URL+"/state", "application/jsonl", &buf)
			if err == nil {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("state swap status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
}

// TestServiceBatchMetrics checks the trout_predict_batch_size histogram
// lands in /metrics with cumulative le buckets.
func TestServiceBatchMetrics(t *testing.T) {
	e := sharedExperiment(t)
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	jobs := batchFixtureJobs(e, 3)
	at := liveQueueFixture(t).Now
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": at, "jobs": jobs}, nil); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`trout_predict_batch_size_bucket{le="4"} 1`,
		`trout_predict_batch_size_bucket{le="+Inf"} 1`,
		"trout_predict_batch_size_sum 3",
		"trout_predict_batch_size_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
