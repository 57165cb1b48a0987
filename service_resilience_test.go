package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	trout "repro"
	"repro/internal/baselines"
	"repro/internal/features"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// resilientBundle trains one bundle for all resilience tests (model
// training is the expensive part; each test then wraps it in its own
// Service, poisoning shallow copies so tests stay independent).
var (
	rbOnce sync.Once
	rbMemo *trout.Bundle
	rbErr  error
)

func resilientBundle(t *testing.T) *trout.Bundle {
	t.Helper()
	e := sharedFixture(t)
	rbOnce.Do(func() {
		m, _, err := trout.TrainHoldout(e.Data, e.Pipeline.Model, 0.2)
		if err != nil {
			rbErr = err
			return
		}
		rbMemo, rbErr = trout.NewBundle(m, e.Data, e.Cluster)
	})
	if rbErr != nil {
		t.Fatal(rbErr)
	}
	return rbMemo
}

// fastBundle returns a private gob round-trip of the shared bundle for tests
// that serve with FastInference: compiling onto the float32 path is one-way,
// and the other tests compare against the shared bundle's f64 answers.
func fastBundle(t *testing.T) *trout.Bundle {
	t.Helper()
	var buf bytes.Buffer
	if err := resilientBundle(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := trout.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// poisonedClassifier returns a copy of the bundle whose classifier weights
// are all NaN — the "corrupted bundle" from the acceptance criteria —
// without touching the shared original.
func poisonedClassifier(t *testing.T, b *trout.Bundle) *trout.Bundle {
	t.Helper()
	bad := b.Model.Classifier.CloneFor(rand.New(rand.NewSource(1)))
	bad.CopyWeightsFrom(b.Model.Classifier)
	for _, p := range bad.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = math.NaN()
		}
	}
	mCopy := *b.Model
	mCopy.Classifier = bad
	bCopy := *b
	bCopy.Model = &mCopy
	return &bCopy
}

// resilientServer boots a service from liveQueueFixture's cut trace: the
// engine clock sits mid-trace and the queue holds pending and running jobs.
func resilientServer(t *testing.T, b *trout.Bundle, cfg trout.ServiceConfig) (*httptest.Server, *trout.Service) {
	t.Helper()
	svc, err := trout.NewServiceWith(b, liveQueueFixture(t).Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

// TestServiceFallbackOnPoisonedNN is the acceptance-criteria scenario:
// with NaN classifier weights the service must still answer 2xx via a
// lower tier, and /health must report the degradation.
func TestServiceFallbackOnPoisonedNN(t *testing.T) {
	q := liveQueueFixture(t)
	srv, _ := resilientServer(t, poisonedClassifier(t, resilientBundle(t)), trout.ServiceConfig{})

	jobID := q.Pending[0].ID
	var p struct {
		Prob    float64 `json:"prob"`
		Tier    string  `json:"tier"`
		Message string  `json:"message"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID), &p); code != 200 {
		t.Fatalf("poisoned-NN predict status %d", code)
	}
	if p.Tier != resilience.TierBaseline {
		t.Fatalf("tier %q, want %q", p.Tier, resilience.TierBaseline)
	}
	if p.Prob < 0 || p.Prob > 1 || math.IsNaN(p.Prob) {
		t.Fatalf("prob %v", p.Prob)
	}
	if !strings.Contains(p.Message, "Predicted") {
		t.Fatalf("message %q", p.Message)
	}

	// POST /predict (hypothetical job) must degrade the same way.
	tmpl := q.Pending[0]
	body, err := json.Marshal(map[string]any{
		"at": q.Now,
		"job": map[string]any{
			"user": tmpl.User, "partition": tmpl.Partition,
			"req_cpus": tmpl.ReqCPUs, "req_mem_gb": tmpl.ReqMemGB,
			"req_nodes": tmpl.ReqNodes, "time_limit": tmpl.TimeLimit,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("poisoned-NN POST predict status %d", resp.StatusCode)
	}
	var pp struct {
		Tier string `json:"tier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pp); err != nil {
		t.Fatal(err)
	}
	if pp.Tier != resilience.TierBaseline {
		t.Fatalf("POST tier %q, want %q", pp.Tier, resilience.TierBaseline)
	}

	var h struct {
		FallbackTiers map[string]uint64 `json:"fallback_tiers"`
		Degraded      bool              `json:"degraded"`
	}
	if code := getJSON(t, srv.URL+"/health", &h); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if h.FallbackTiers[resilience.TierBaseline] < 2 || !h.Degraded {
		t.Fatalf("health after fallback: %+v", h)
	}
}

// TestServiceBadRequestDoesNotDegradeHealth: an unknown partition is a
// client's typo (a 400 on /predict, an item error in a batch), not a tier
// outcome — it used to count under tier "error" and latch /health to
// degraded until restart. A poisoned NN answering from a lower tier still
// flips it, on both endpoints.
func TestServiceBadRequestDoesNotDegradeHealth(t *testing.T) {
	q := liveQueueFixture(t)
	typo := trace.Job{User: 1, Partition: "no-such-partition", ReqCPUs: 1, ReqNodes: 1, TimeLimit: 3600}
	good := typo
	good.Partition = q.Pending[0].Partition
	health := func(url string) (h struct {
		FallbackTiers map[string]uint64 `json:"fallback_tiers"`
		Degraded      bool              `json:"degraded"`
	}) {
		t.Helper()
		if code := getJSON(t, url+"/health", &h); code != 200 {
			t.Fatalf("health status %d", code)
		}
		return h
	}
	for _, path := range []string{"/predict", "/predict/batch"} {
		body := func(j trace.Job) map[string]any {
			if path == "/predict" {
				return map[string]any{"at": q.Now, "job": j}
			}
			return map[string]any{"at": q.Now, "jobs": []trace.Job{j}}
		}
		srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
		want := map[string]int{"/predict": http.StatusBadRequest, "/predict/batch": http.StatusOK}[path]
		if code := postJSON(t, srv.URL+path, body(typo), nil); code != want {
			t.Fatalf("%s with an unknown partition: status %d, want %d", path, code, want)
		}
		if h := health(srv.URL); h.Degraded || len(h.FallbackTiers) != 0 {
			t.Fatalf("%s: health after a bad request: %+v", path, h)
		}

		srv, _ = resilientServer(t, poisonedClassifier(t, resilientBundle(t)), trout.ServiceConfig{})
		if code := postJSON(t, srv.URL+path, body(good), nil); code != http.StatusOK {
			t.Fatalf("%s on a poisoned NN: status %d", path, code)
		}
		if h := health(srv.URL); !h.Degraded || h.FallbackTiers[resilience.TierBaseline] != 1 {
			t.Fatalf("%s: health after a fallback answer: %+v", path, h)
		}
	}
}

// TestServiceHeuristicTier strips the baseline too: the partition-median
// tier must answer.
func TestServiceHeuristicTier(t *testing.T) {
	b := poisonedClassifier(t, resilientBundle(t))
	b.Fallback.Baseline = nil
	srv, svc := resilientServer(t, b, trout.ServiceConfig{})

	jobID := liveQueueFixture(t).Pending[0].ID
	var p struct {
		Tier string `json:"tier"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID), &p); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if p.Tier != resilience.TierHeuristic {
		t.Fatalf("tier %q, want %q", p.Tier, resilience.TierHeuristic)
	}
	if c := svc.FallbackCounters(); c[resilience.TierHeuristic] != 1 {
		t.Fatalf("counters %v", c)
	}
}

// TestFallbackOnPoisonedInput pins the NaN-propagation bugfix end to end.
// A poisoned *input* (a NaN feature row, here via a runtime predictor that
// emits NaN) must never be silently served as a plausible finite number by
// a tree tier: before the fix the pointer walk sent NaN down the right
// child at every split (NaN <= threshold is false), so the tier-2 GBDT
// answered garbage with a straight face instead of deferring.
func TestFallbackOnPoisonedInput(t *testing.T) {
	e := sharedFixture(t)
	b := resilientBundle(t)
	jobID := e.Trace.Jobs[len(e.Trace.Jobs)/2].ID
	snap, err := trout.SnapshotFromTrace(e.Trace, jobID)
	if err != nil {
		t.Fatal(err)
	}

	// The production tier-2 GBDT itself must propagate a fully poisoned row.
	clean, err := b.FeatureRow(snap)
	if err != nil {
		t.Fatal(err)
	}
	nanRow := make([]float64, len(clean))
	for i := range nanRow {
		nanRow[i] = math.NaN()
	}
	if v := b.Fallback.Baseline.Predict(nanRow); !math.IsNaN(v) {
		t.Fatalf("tier-2 GBDT served %v from an all-NaN row, want NaN", v)
	}

	// Chain level: a runtime predictor whose forest learned only NaN leaves
	// poisons the Pred-Runtime features of every row it touches. The tiered
	// chain must still answer — finite, in range — from a non-NN tier.
	nanForest := baselines.NewForest(baselines.ForestConfig{Trees: 1, Tree: baselines.TreeConfig{MaxDepth: 1}})
	if err := nanForest.Fit(
		[][]float64{{0}, {0}, {0}, {0}},
		[]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()},
	); err != nil {
		t.Fatal(err)
	}
	bCopy := *b
	bCopy.Runtime = &features.RuntimePredictor{Forest: nanForest}

	poisoned, err := bCopy.FeatureRow(snap)
	if err != nil {
		t.Fatal(err)
	}
	hasNaN := false
	for _, v := range poisoned {
		if math.IsNaN(v) {
			hasNaN = true
			break
		}
	}
	if !hasNaN {
		t.Fatal("poisoned runtime predictor produced a NaN-free feature row; test is vacuous")
	}

	tp, err := bCopy.PredictWithFallback(snap)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Tier == resilience.TierNN {
		t.Fatalf("NN tier answered from a NaN feature row")
	}
	if math.IsNaN(tp.Prob) || math.IsNaN(tp.Minutes) || tp.Prob < 0 || tp.Prob > 1 || tp.Minutes < 0 {
		t.Fatalf("degraded answer out of range: %+v", tp.Prediction)
	}
}

// TestServiceHealthyTierIsNN pins the happy path: an intact bundle answers
// from the primary tier and reports no degradation.
func TestServiceHealthyTierIsNN(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	jobID := liveQueueFixture(t).Pending[0].ID
	var p struct {
		Tier string `json:"tier"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, jobID), &p); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if p.Tier != resilience.TierNN {
		t.Fatalf("tier %q, want %q", p.Tier, resilience.TierNN)
	}
	var h struct {
		Degraded bool `json:"degraded"`
	}
	getJSON(t, srv.URL+"/health", &h)
	if h.Degraded {
		t.Fatal("healthy service reported degraded")
	}
}

// TestServicePanicRecovery wrecks the bundle so a handler dereferences a
// nil model: the middleware must convert the panic into a JSON 500.
func TestServicePanicRecovery(t *testing.T) {
	b := *resilientBundle(t)
	b.Model = nil
	srv, _ := resilientServer(t, &b, trout.ServiceConfig{})

	resp, err := http.Get(srv.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var eb resilience.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	if eb.Error == "" || eb.Status != 500 {
		t.Fatalf("error body %+v", eb)
	}
}

// TestServiceBodyLimit posts an oversized /state body and expects a 413.
func TestServiceBodyLimit(t *testing.T) {
	e := sharedFixture(t)
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{MaxBodyBytes: 1 << 10})

	sub := &trout.Trace{Jobs: e.Trace.Jobs[:200]}
	var buf bytes.Buffer
	if err := sub.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 1<<10 {
		t.Fatalf("fixture body too small (%d bytes)", buf.Len())
	}
	resp, err := http.Post(srv.URL+"/state", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d", resp.StatusCode)
	}
}

// TestServiceDeadline keeps a /state upload open past the request
// deadline and expects a JSON 504.
func TestServiceDeadline(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{RequestTimeout: 100 * time.Millisecond})

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/state", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled upload status %d", resp.StatusCode)
	}
	var eb resilience.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("504 body not JSON: %v", err)
	}
}

// TestServiceStalledEventsDurableBefore504 stalls a POST /events on a
// WAL-backed store after two good lines. The handler runs on the request
// goroutine, so its read fails at the deadline, it syncs the applied
// prefix, and only then does its late reply become the 504: by the time
// the client reads the status that prefix is durable.
func TestServiceStalledEventsDurableBefore504(t *testing.T) {
	srv, svc, _ := leaderService(t, trout.ServiceConfig{RequestTimeout: 100 * time.Millisecond})
	st := svc.LiveStore()
	before := st.Metrics().LSN
	now := st.Engine().Now()

	pr, pw := io.Pipe()
	defer pw.Close()
	go fmt.Fprintf(pw, `{"type":"submit","time":%d,"job":{"id":9300001,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n"+
		`{"type":"eligible","time":%d,"job_id":9300001}`+"\n", now, now, now+1)
	resp, err := http.Post(srv.URL+"/events", "application/jsonl", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled events status %d", resp.StatusCode)
	}
	if durable, lsn := st.DurableLSN(), st.Metrics().LSN; durable != lsn || lsn != before+2 {
		t.Fatalf("at the 504: durable LSN %d, LSN %d, want both %d", durable, lsn, before+2)
	}
}

// TestServiceTolerantStateUpload mixes corrupt rows into a /state body:
// within budget they are skipped and reported; past it the upload fails.
func TestServiceTolerantStateUpload(t *testing.T) {
	e := sharedFixture(t)
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{MaxBadStateRows: 2})

	sub := &trout.Trace{Jobs: e.Trace.Jobs[:50]}
	var buf bytes.Buffer
	if err := sub.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	body := "corrupt line one\n" + buf.String() + "{\"id\": broken\n"
	resp, err := http.Post(srv.URL+"/state", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("state upload status %d", resp.StatusCode)
	}
	var sr struct {
		Jobs    int `json:"jobs"`
		Skipped int `json:"skipped_rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Jobs != 50 || sr.Skipped != 2 {
		t.Fatalf("state response %+v", sr)
	}

	// Three bad rows beats the budget of two.
	body = "junk\nmore junk\neven more junk\n" + buf.String()
	resp, err = http.Post(srv.URL+"/state", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-budget upload status %d", resp.StatusCode)
	}
}

// TestServiceReadiness exercises the /ready drain flip.
func TestServiceReadiness(t *testing.T) {
	srv, svc := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	var r struct {
		Ready bool `json:"ready"`
	}
	if code := getJSON(t, srv.URL+"/ready", &r); code != 200 || !r.Ready {
		t.Fatalf("ready gave %d %+v", code, r)
	}
	svc.SetReady(false)
	resp, err := http.Get(srv.URL + "/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining ready gave %d", resp.StatusCode)
	}
}

// TestServiceStrictJobIDParsing pins the Sscanf fix: trailing garbage
// after the numeric ID must 400 instead of silently truncating.
func TestServiceStrictJobIDParsing(t *testing.T) {
	srv, _ := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	for _, path := range []string{"/predict?job=12abc", "/predict?job=", "/features?job=12abc", "/features?job=1e3"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s gave %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestBundleFallbackRoundTrip saves and reloads a bundle and checks the
// fallback predictors survive the trip and still answer identically.
func TestBundleFallbackRoundTrip(t *testing.T) {
	e := sharedFixture(t)
	b := resilientBundle(t)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trout.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fallback.Baseline == nil {
		t.Fatal("baseline lost in round trip")
	}
	if len(back.Fallback.PartitionMedianMinutes) != len(b.Fallback.PartitionMedianMinutes) {
		t.Fatalf("medians lost: %v", back.Fallback.PartitionMedianMinutes)
	}
	if back.Fallback.GlobalMedianMinutes != b.Fallback.GlobalMedianMinutes {
		t.Fatal("global median changed")
	}
	snap, err := trout.SnapshotFromTrace(e.Trace, e.Trace.Jobs[len(e.Trace.Jobs)/2].ID)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.PredictWithFallback(snap)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.PredictWithFallback(snap)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Tier != resilience.TierNN || p1 != p2 {
		t.Fatalf("round-trip predictions differ: %+v vs %+v", p1, p2)
	}
}

// TestBundlePoisonedPredictDirect exercises the chain below the HTTP
// layer, including NaN-classifier → baseline consistency of the Long flag.
func TestBundlePoisonedPredictDirect(t *testing.T) {
	e := sharedFixture(t)
	b := poisonedClassifier(t, resilientBundle(t))
	cutoff := b.Model.Cfg.CutoffMinutes
	for i := 0; i < 10; i++ {
		job := e.Trace.Jobs[(i+1)*len(e.Trace.Jobs)/12]
		snap, err := trout.SnapshotFromTrace(e.Trace, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.PredictWithFallback(snap)
		if err != nil {
			t.Fatal(err)
		}
		if p.Tier != resilience.TierBaseline {
			t.Fatalf("job %d answered by %q", job.ID, p.Tier)
		}
		if p.Long != (p.Prob >= 0.5) {
			t.Fatalf("job %d: Long=%v but Prob=%v", job.ID, p.Long, p.Prob)
		}
		if p.Long && p.Minutes < cutoff {
			t.Fatalf("job %d: long with %v minutes under cutoff", job.ID, p.Minutes)
		}
	}
}

// TestHugeFiniteWaitFallsBack: a regressor whose output bias is forced
// high answers a finite wait too large for the message's minute count
// (expm1 of the bias alone is ≈5e21 minutes). Printed, it wrapped to a
// negative wait; the NN tier must refuse it so the baseline answers, on
// the bundle and through POST /predict/batch alike.
func TestHugeFiniteWaitFallsBack(t *testing.T) {
	b := resilientBundle(t)
	high := b.Model.Regressor.CloneFor(rand.New(rand.NewSource(1)))
	high.CopyWeightsFrom(b.Model.Regressor)
	ps := high.Params()
	bias := ps[len(ps)-1].Value.Data
	if len(bias) != 1 {
		t.Fatalf("the regressor's last parameter has %d values, want its output bias", len(bias))
	}
	bias[0] = 50
	mCopy := *b.Model
	mCopy.Regressor = high
	bCopy := *b
	bCopy.Model = &mCopy

	q := liveQueueFixture(t)
	var jobs []trace.Job // queued jobs as what-ifs: some wait past the cutoff
	for i := 0; i < len(q.Pending); i += max(1, len(q.Pending)/32) {
		jobs = append(jobs, q.Pending[i])
	}
	var longs int
	for i, j := range jobs {
		snap := trout.SnapshotAtInstant(q.Trace, q.Now, j)
		if b.Model.Predict(mustRow(t, b, snap)).Long {
			longs++
		}
		if raw := mCopy.Predict(mustRow(t, b, snap)); raw.Long && math.Round(raw.Minutes) < math.MaxInt64 {
			t.Fatalf("job %d: forced regressor answers %v minutes, not past an int64", i, raw.Minutes)
		}
		p, err := bCopy.PredictWithFallback(snap)
		if err != nil {
			t.Fatal(err)
		}
		if p.Long && p.Tier == resilience.TierNN {
			t.Fatalf("job %d: NN tier served %v minutes", i, p.Minutes)
		}
		if msg := p.Message(b.Model.Cfg.CutoffMinutes); strings.Contains(msg, "-") {
			t.Fatalf("job %d: %q", i, msg)
		}
	}
	if longs == 0 {
		t.Fatal("no fixture job is classified long; the regressor is not under test")
	}

	srv, _ := resilientServer(t, &bCopy, trout.ServiceConfig{})
	var got batchReply
	if code := postJSON(t, srv.URL+"/predict/batch", map[string]any{"at": q.Now, "jobs": jobs}, &got); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	var fellBack int
	for i, r := range got.Results {
		if r.Error != "" || strings.Contains(r.Message, "-") {
			t.Fatalf("item %d: %+v", i, r)
		}
		if r.Long && r.Tier == resilience.TierNN {
			t.Fatalf("item %d: NN tier served %v minutes", i, r.Minutes)
		}
		if r.Tier != resilience.TierNN {
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no item fell back")
	}
}

func mustRow(t *testing.T, b *trout.Bundle, snap *trout.Snapshot) []float64 {
	t.Helper()
	row, err := b.FeatureRow(snap)
	if err != nil {
		t.Fatal(err)
	}
	return row
}
