package trout_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	trout "repro"
	"repro/internal/baselines"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/trace"
	"repro/internal/tscv"
)

// Holdout scores for synthetic candidates: tests pick the candidate to
// score better (promotion path) or worse (rejection path) than the
// incumbent on the trainer's holdout.
var (
	betterEval = controlplane.Eval{MAEMinutes: 5, HitRate: 0.97, LongJobs: 30}
	worseEval  = controlplane.Eval{MAEMinutes: 500, HitRate: 0.40, LongJobs: 30}
)

// fakeCandidate is a synthetic retrain product: blob, judged to score
// cand on its holdout where the incumbent scores inc.
func fakeCandidate(blob []byte, cand, inc controlplane.Eval) func(context.Context) (*controlplane.Candidate, error) {
	return func(context.Context) (*controlplane.Candidate, error) {
		return &controlplane.Candidate{
			Blob:      blob,
			Eval:      cand,
			Incumbent: inc,
			Holdout:   "85 jobs eligible 1000..9000",
			Samples:   512,
			Watermark: 12345,
		}, nil
	}
}

// serializeBundle gob-encodes a shallow copy (Save stamps the fingerprint
// on its receiver; the memoized shared bundle must stay untouched).
func serializeBundle(t *testing.T, b *trout.Bundle) []byte {
	t.Helper()
	cp := *b
	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func blobFingerprint(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// cpHarness is an in-process service with a control plane attached and its
// controller loop running, plus an event clock for driving live traffic.
type cpHarness struct {
	t   *testing.T
	srv *httptest.Server
	svc *trout.Service
	cp  *trout.ControlPlane

	id  int
	now atomic.Int64 // event clock, unix seconds
}

func newCPHarness(t *testing.T, cfg trout.ControlPlaneConfig) *cpHarness {
	t.Helper()
	e := sharedFixture(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RegistryDir == "" {
		cfg.RegistryDir = t.TempDir()
	}
	cp, err := svc.AttachControlPlane(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cp.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	h := &cpHarness{t: t, srv: srv, svc: svc, cp: cp}
	h.now.Store(svc.LiveStore().Engine().Now() + 3600)
	return h
}

func (h *cpHarness) postEvents(evs ...livestate.Event) {
	h.t.Helper()
	var body bytes.Buffer
	for _, ev := range evs {
		line, err := json.Marshal(ev)
		if err != nil {
			h.t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	resp, err := http.Post(h.srv.URL+"/events", "application/x-ndjson", &body)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("events status %d", resp.StatusCode)
	}
	var r struct {
		Applied  int `json:"applied"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		h.t.Fatal(err)
	}
	if r.Applied != len(evs) {
		h.t.Fatalf("applied %d of %d events (%d rejected)", r.Applied, len(evs), r.Rejected)
	}
}

// cpPredict is the slice of predictResponse these tests care about.
type cpPredict struct {
	Long         bool    `json:"long"`
	Prob         float64 `json:"prob"`
	Minutes      float64 `json:"minutes"`
	ModelVersion int     `json:"model_version"`
	ModelID      string  `json:"model_id"`
}

// pumpJob drives one full served-prediction lifecycle: submit an eligible
// job, GET /predict for it (recording the served answer into the online
// tracker), then post its start event with the given realized wait.
// Returns the served prediction.
func (h *cpHarness) pumpJob(waitSecs int64) cpPredict {
	h.t.Helper()
	id, at, p := h.servePending()
	h.now.Store(at + waitSecs + 60)
	h.postEvents(livestate.Event{Type: livestate.EventStart, Time: at + waitSecs, JobID: id})
	return p
}

// servePending submits a job eligible at the harness clock and GETs
// /predict for it, leaving the served answer pending in the online
// tracker. It returns the job's ID, its eligibility and the answer.
func (h *cpHarness) servePending() (int, int64, cpPredict) {
	h.t.Helper()
	h.id++
	id := 9_000_000 + h.id
	at := h.now.Load()
	h.now.Store(at + 60)
	job := trace.Job{
		ID: id, User: 7, Partition: "shared",
		ReqCPUs: 1, ReqMemGB: 2, ReqNodes: 1,
		TimeLimit: 3600, Priority: 5000, Submit: at,
	}
	h.postEvents(
		livestate.Event{Type: livestate.EventSubmit, Time: at, Job: &job},
		livestate.Event{Type: livestate.EventEligible, Time: at, JobID: id},
	)
	var p cpPredict
	if code := getJSON(h.t, fmt.Sprintf("%s/predict?job=%d", h.srv.URL, id), &p); code != http.StatusOK {
		h.t.Fatalf("predict job %d status %d", id, code)
	}
	return id, at, p
}

// cpHealth is the slice of healthResponse these tests care about.
type cpHealth struct {
	Status string `json:"status"`
	Model  struct {
		Version     int               `json:"version"`
		Fingerprint string            `json:"fingerprint"`
		Swaps       map[string]uint64 `json:"swaps"`
	} `json:"model"`
	ControlPlane *controlplane.Status `json:"control_plane"`
}

func (h *cpHarness) health() cpHealth {
	h.t.Helper()
	var out cpHealth
	if code := getJSON(h.t, h.srv.URL+"/health", &out); code != http.StatusOK {
		h.t.Fatalf("health status %d", code)
	}
	return out
}

// attributionLoad hammers POST /predict and POST /predict/batch from n
// goroutines until stop closes, recording every failure and every
// (model_version, model_id) attribution pair it observes. A 422 is not a
// failure: the harness clock leaps hours per pumped job, so an instant
// read just before a leap is stale by the time the request lands, the
// service says so, and the loop re-reads the clock.
type attributionLoad struct {
	wg       sync.WaitGroup
	stop     chan struct{}
	requests atomic.Uint64
	failures atomic.Uint64
	stale    atomic.Uint64
	mu       sync.Mutex
	pairs    map[string]int
}

func startAttributionLoad(srv *httptest.Server, now *atomic.Int64, n int) *attributionLoad {
	l := &attributionLoad{stop: make(chan struct{}), pairs: map[string]int{}}
	client := srv.Client()
	job := `{"user":3,"partition":"shared","req_cpus":2,"req_mem_gb":4,"req_nodes":1,"time_limit":7200,"priority":4000}`
	do := func(path, body string) {
		var out cpPredict
		resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader(body))
		l.requests.Add(1)
		if err != nil {
			l.failures.Add(1)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusUnprocessableEntity {
			l.stale.Add(1)
			return
		}
		if resp.StatusCode != http.StatusOK {
			l.failures.Add(1)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			l.failures.Add(1)
			return
		}
		key := fmt.Sprintf("%d/%s", out.ModelVersion, out.ModelID)
		l.mu.Lock()
		l.pairs[key]++
		l.mu.Unlock()
	}
	for i := 0; i < n; i++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for {
				select {
				case <-l.stop:
					return
				default:
				}
				at := now.Load()
				do("/predict", fmt.Sprintf(`{"at":%d,"job":%s}`, at, job))
				do("/predict/batch", fmt.Sprintf(`{"at":%d,"jobs":[%s,%s]}`, at, job, job))
			}
		}()
	}
	return l
}

func (l *attributionLoad) halt() map[string]int {
	close(l.stop)
	l.wg.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for k, v := range l.pairs {
		out[k] = v
	}
	return out
}

// TestControlPlaneEndToEnd closes the whole continual-learning loop in
// process: live traffic whose realized waits contradict the serving model
// drives the online drift gauges past threshold, the controller retrains
// (stubbed to an instant trainer whose candidate beats the incumbent on
// its holdout), and hot-swaps it into serving with no further traffic;
// the promoted model then clears probation on its own answers — all while
// concurrent predict load observes zero failed requests and every response
// stays attributable to exactly one model version.
func TestControlPlaneEndToEnd(t *testing.T) {
	blob := serializeBundle(t, resilientBundle(t))
	wantFP := blobFingerprint(blob)
	// The new regime: every realized wait is 300 minutes. Whatever the
	// incumbent answers is wrong by hours (MAE trigger) or mis-classified
	// (calibration-drift trigger).
	const waitSecs = 300 * 60
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: 0.2,
		MAEThreshold:   15,
		MinWindow:      8,
		CheckInterval:  5 * time.Millisecond,
		RollbackWindow: 3,
		Trainer:        fakeCandidate(blob, betterEval, worseEval),
	})
	baseline, _ := h.svc.CurrentModel()
	load := startAttributionLoad(h.srv, &h.now, 3)

	deadline := time.Now().Add(60 * time.Second)
	for h.cp.Controller().Status().Retrains == 0 {
		if time.Now().After(deadline) {
			load.halt()
			t.Fatalf("drift never triggered a retrain; status %+v", h.cp.Controller().Status())
		}
		h.pumpJob(waitSecs)
	}
	// The holdout decides: no joined outcome is needed to promote.
	for h.cp.Controller().Status().Promotions == 0 {
		if time.Now().After(deadline) {
			load.halt()
			t.Fatalf("promotion never happened; status %+v", h.cp.Controller().Status())
		}
		time.Sleep(time.Millisecond)
	}
	if st := h.cp.Controller().Status(); st.State != controlplane.StateProbation || st.Retrains != 1 {
		t.Fatalf("controller status after promotion = %+v", st)
	}

	// Probation clears on the promoted model's own answers (the same
	// weights as the incumbent's, so no regression).
	for h.cp.Controller().Status().LastVerdict != controlplane.VerdictPromoted {
		if time.Now().After(deadline) {
			load.halt()
			t.Fatalf("probation never cleared; status %+v", h.cp.Controller().Status())
		}
		h.pumpJob(waitSecs)
	}
	pairs := load.halt()
	if n := load.failures.Load(); n != 0 {
		t.Fatalf("%d of %d concurrent requests failed across the hot-swap", n, load.requests.Load())
	}
	if load.requests.Load() == 0 || len(pairs) == 0 {
		t.Fatalf("attribution load never got an answer (%d requests, %d stale)", load.requests.Load(), load.stale.Load())
	}
	valid := map[string]bool{
		fmt.Sprintf("0/%s", baseline.Fingerprint): true,
		fmt.Sprintf("1/%s", wantFP):               true,
	}
	for pair := range pairs {
		if !valid[pair] {
			t.Fatalf("response attributed to unknown serving pair %q (valid %v, seen %v)", pair, valid, pairs)
		}
	}

	// Serving identity: /health and a fresh predict agree on version 1,
	// and its fingerprint IS the registry manifest's content address.
	hr := h.health()
	if hr.Model.Version != 1 || hr.Model.Fingerprint != wantFP {
		t.Fatalf("health model = %+v, want version 1 fingerprint %s", hr.Model, wantFP)
	}
	if hr.Model.Swaps["promote"] == 0 {
		t.Fatalf("health swaps = %v", hr.Model.Swaps)
	}
	if hr.ControlPlane == nil || hr.ControlPlane.LastVerdict != controlplane.VerdictPromoted {
		t.Fatalf("health control_plane = %+v", hr.ControlPlane)
	}
	if p := h.pumpJob(waitSecs); p.ModelVersion != 1 || p.ModelID != wantFP {
		t.Fatalf("post-promotion predict attributed to %d/%s", p.ModelVersion, p.ModelID)
	}

	var models struct {
		ServingVersion int                     `json:"serving_version"`
		Active         int                     `json:"active"`
		Versions       []controlplane.Manifest `json:"versions"`
	}
	if code := getJSON(t, h.srv.URL+"/admin/models", &models); code != http.StatusOK {
		t.Fatalf("admin/models status %d", code)
	}
	if models.ServingVersion != 1 || models.Active != 1 {
		t.Fatalf("admin/models = %+v", models)
	}
	if len(models.Versions) != 1 || models.Versions[0].ID != wantFP ||
		models.Versions[0].Status != controlplane.StatusActive {
		t.Fatalf("registry versions = %+v", models.Versions)
	}
	if want := "holdout 85 jobs eligible 1000..9000: cand hit 0.970 mae 5.0 (long 30) vs inc hit 0.400 mae 500.0 (long 30)"; models.Versions[0].Note != want {
		t.Fatalf("promotion note %q, want the holdout scores %q", models.Versions[0].Note, want)
	}

	// /metrics tells the same story as /admin/models: one promoted
	// retrain, one promote swap, and the serving version's identity.
	body, _ := scrape(t, h.srv.URL)
	for _, series := range []string{
		`trout_controlplane_retrains_total{outcome="promoted"}`,
		`trout_model_swaps_total{kind="promote"}`,
		fmt.Sprintf(`trout_model_info{version="%d",fingerprint="%s"}`, models.ServingVersion, models.Versions[0].ID),
	} {
		if v := metricValue(t, body, series); v != 1 {
			t.Errorf("%s = %v, want 1", series, v)
		}
	}
}

// TestControlPlaneRejectsWorseCandidate proves the judge's other arm: a
// manually triggered retrain whose candidate scores worse on its holdout
// is rejected with no predict traffic at all, the incumbent keeps serving
// as version 0, and the rejection is recorded in the registry.
func TestControlPlaneRejectsWorseCandidate(t *testing.T) {
	blob := serializeBundle(t, resilientBundle(t))
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: -1, // autonomous trigger off: this test drives /admin/retrain
		CheckInterval:  5 * time.Millisecond,
		Trainer:        fakeCandidate(blob, worseEval, betterEval),
	})
	var trig struct {
		Accepted bool   `json:"accepted"`
		Message  string `json:"message"`
	}
	resp, err := http.Post(h.srv.URL+"/admin/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&trig); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !trig.Accepted {
		t.Fatalf("admin/retrain status %d, body %+v", resp.StatusCode, trig)
	}

	deadline := time.Now().Add(60 * time.Second)
	for h.cp.Controller().Status().LastVerdict != controlplane.VerdictRejected {
		if time.Now().After(deadline) {
			t.Fatalf("rejection never happened; status %+v", h.cp.Controller().Status())
		}
		time.Sleep(time.Millisecond)
	}
	if j := h.svc.Tracker().Stats().Joined; j != 0 {
		t.Fatalf("%d outcomes joined before the verdict; the holdout needs none", j)
	}

	st := h.cp.Controller().Status()
	if st.Rejections != 1 || st.Promotions != 0 {
		t.Fatalf("controller status = %+v", st)
	}
	hr := h.health()
	if hr.Model.Version != 0 {
		t.Fatalf("incumbent displaced: health model = %+v", hr.Model)
	}
	if l := h.cp.Registry().List(); len(l) != 1 || l[0].Version != 1 || l[0].Status != controlplane.StatusRejected || l[0].Note == "" {
		t.Fatalf("rejected manifest list = %+v", l)
	}
	if h.cp.Registry().ActiveVersion() != 0 {
		t.Fatalf("registry active = %d", h.cp.Registry().ActiveVersion())
	}
	// The incumbent keeps answering.
	if p := h.pumpJob(60); p.ModelVersion != 0 {
		t.Fatalf("post-rejection predict attributed to version %d", p.ModelVersion)
	}
}

// TestHotSwapHammer drives /predict and /predict/batch from several
// goroutines while the serving bundle is repeatedly hot-swapped and rolled
// back and event ingest keeps bumping the engine version (so predicts race
// snapshot-cache invalidation as well as the swap). Run under -race in CI.
// Invariants: zero failed requests, and every response attributes itself
// to exactly one of the two bundles that ever served.
func TestHotSwapHammer(t *testing.T) {
	srv, svc := resilientServer(t, resilientBundle(t), trout.ServiceConfig{})
	blob := serializeBundle(t, resilientBundle(t))
	next, err := trout.LoadBundle(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	wantFP := blobFingerprint(blob)
	baseline, _ := svc.CurrentModel()

	var now atomic.Int64
	now.Store(svc.LiveStore().Engine().Now())
	load := startAttributionLoad(srv, &now, 4)
	stopIngest := make(chan struct{})
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		client := srv.Client()
		for i := 0; ; i++ {
			select {
			case <-stopIngest:
				return
			default:
			}
			at := now.Load() + 2
			resp, err := client.Post(srv.URL+"/events", "application/jsonl",
				strings.NewReader(cacheEventsBody(9310000+i, at)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				now.Store(at + 1) // predicts follow the live clock
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	const swaps = 20
	for i := 0; i < swaps; i++ {
		if err := svc.SwapBundle(next, 1); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
		if err := svc.RollbackBundle(); err != nil {
			t.Fatalf("rollback %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopIngest)
	<-ingestDone
	pairs := load.halt()

	// The clock here moves seconds per ingest, so nothing may go stale either.
	if n := load.failures.Load() + load.stale.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during hot-swap hammer", n, load.requests.Load())
	}
	valid := map[string]bool{
		fmt.Sprintf("0/%s", baseline.Fingerprint): true,
		fmt.Sprintf("1/%s", wantFP):               true,
	}
	for pair := range pairs {
		if !valid[pair] {
			t.Fatalf("response attributed to torn serving pair %q (valid %v)", pair, valid)
		}
	}
	if b, v := svc.CurrentModel(); v != 0 || b != baseline {
		t.Fatalf("serving (%p, v%d) after final rollback, want baseline v0", b, v)
	}
	var hr cpHealth
	if code := getJSON(t, srv.URL+"/health", &hr); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if hr.Model.Swaps["promote"] != swaps || hr.Model.Swaps["rollback"] != swaps {
		t.Fatalf("health swaps = %v, want %d of each", hr.Model.Swaps, swaps)
	}
}

// TestAdminSwapCompatGuard covers the operator override: an incompatible
// registry bundle is refused with a structured 422 (and a typed error via
// the Go API) while the incumbent keeps serving; a compatible one swaps in
// and rolls back cleanly.
func TestAdminSwapCompatGuard(t *testing.T) {
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: -1,
		Trainer: func(context.Context) (*controlplane.Candidate, error) {
			return nil, errors.New("unused")
		},
	})

	// An otherwise-valid bundle whose model claims the wrong feature
	// width: decodes fine, fails the compat guard.
	bad := *resilientBundle(t)
	badModel := *bad.Model
	badModel.NumInputs = 7
	bad.Model = &badModel
	var incompatErr *trout.IncompatibleBundleError
	if err := h.svc.SwapBundle(&bad, 99); !errors.As(err, &incompatErr) {
		t.Fatalf("SwapBundle(incompatible) = %v, want IncompatibleBundleError", err)
	}

	badBlob := serializeBundle(t, &bad)
	if _, err := h.cp.Registry().Publish(badBlob, controlplane.Manifest{Note: "wrong feature width"}); err != nil {
		t.Fatal(err)
	}
	goodBlob := serializeBundle(t, resilientBundle(t))
	goodFP := blobFingerprint(goodBlob)
	if _, err := h.cp.Registry().Publish(goodBlob, controlplane.Manifest{Note: "compatible"}); err != nil {
		t.Fatal(err)
	}

	var errBody struct {
		Error string `json:"error"`
	}
	resp, err := http.Post(h.srv.URL+"/admin/swap", "application/json", strings.NewReader(`{"version":1}`))
	if err != nil {
		t.Fatal(err)
	}
	code := resp.StatusCode
	if decodeErr := json.NewDecoder(resp.Body).Decode(&errBody); decodeErr != nil {
		t.Fatal(decodeErr)
	}
	resp.Body.Close()
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("swap to incompatible bundle: status %d body %+v", code, errBody)
	}
	if !strings.Contains(errBody.Error, "incompatible bundle") {
		t.Fatalf("422 body %+v should name the incompatibility", errBody)
	}
	if hr := h.health(); hr.Model.Version != 0 {
		t.Fatalf("incumbent displaced by refused swap: %+v", hr.Model)
	}

	// Unknown version: structured 404.
	if code := postJSON(t, h.srv.URL+"/admin/swap", map[string]any{"version": 42}, nil); code != http.StatusNotFound {
		t.Fatalf("swap to unknown version: status %d", code)
	}

	// The compatible version swaps in...
	var ok struct {
		ServingVersion     int    `json:"serving_version"`
		ServingFingerprint string `json:"serving_fingerprint"`
	}
	if code := postJSON(t, h.srv.URL+"/admin/swap", map[string]any{"version": 2}, &ok); code != http.StatusOK {
		t.Fatalf("swap to compatible version: status %d", code)
	}
	if ok.ServingVersion != 2 || ok.ServingFingerprint != goodFP {
		t.Fatalf("swap response = %+v", ok)
	}
	if h.cp.Registry().ActiveVersion() != 2 {
		t.Fatalf("registry active = %d after manual swap", h.cp.Registry().ActiveVersion())
	}
	if p := h.pumpJob(60); p.ModelVersion != 2 || p.ModelID != goodFP {
		t.Fatalf("predict attributed to %d/%s after manual swap", p.ModelVersion, p.ModelID)
	}

	// ...and rolls back to the boot bundle on demand.
	if code := postJSON(t, h.srv.URL+"/admin/swap", map[string]any{"rollback": true}, nil); code != http.StatusOK {
		t.Fatalf("rollback status %d", code)
	}
	if hr := h.health(); hr.Model.Version != 0 {
		t.Fatalf("rollback left model %+v", hr.Model)
	}
	if h.cp.Registry().ActiveVersion() != 0 {
		t.Fatalf("registry active = %d after rollback", h.cp.Registry().ActiveVersion())
	}
}

// worseBundle returns a gob copy of b whose classifier calls every job
// long and whose regressor answers e^8 times b's log-minutes estimate: a
// compatible bundle that is much worse online.
func worseBundle(t *testing.T, b *trout.Bundle) []byte {
	t.Helper()
	nb, err := trout.LoadBundle(bytes.NewReader(serializeBundle(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	cls, reg := nb.Model.Classifier.Params(), nb.Model.Regressor.Params()
	cls[len(cls)-1].Value.Data[0] += 40
	reg[len(reg)-1].Value.Data[0] += 8
	return serializeBundle(t, nb)
}

// TestControlPlaneProbationJudgesPromotedBundle: probation judges only
// answers the promoted bundle gave. The incumbent fills the online window
// and leaves answers pending; a much worse candidate that wins its holdout
// is promoted; the pending answers then resolve, and must count as
// unmatched, not as probation joins; and the promoted bundle's own first
// RollbackWindow outcomes roll it back.
func TestControlPlaneProbationJudgesPromotedBundle(t *testing.T) {
	const window = 8
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: -1,
		CheckInterval:  5 * time.Millisecond,
		RollbackWindow: window,
		Trainer:        fakeCandidate(worseBundle(t, resilientBundle(t)), betterEval, worseEval),
	})
	const waitSecs = 30 * 60
	for i := 0; i < 40; i++ {
		h.pumpJob(waitSecs)
	}
	type pending struct {
		id int
		at int64
	}
	var old []pending
	for i := 0; i < 2*window; i++ {
		id, at, _ := h.servePending()
		old = append(old, pending{id, at})
	}
	before := h.svc.Tracker().Stats()

	if code := postJSON(t, h.srv.URL+"/admin/retrain", nil, nil); code != http.StatusAccepted {
		t.Fatalf("admin/retrain status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for h.cp.Controller().Status().State != controlplane.StateProbation {
		if time.Now().After(deadline) {
			t.Fatalf("candidate never reached probation; status %+v", h.cp.Controller().Status())
		}
		time.Sleep(time.Millisecond)
	}
	if _, v := h.svc.CurrentModel(); v != 1 {
		t.Fatalf("serving version %d on probation, want 1", v)
	}

	// The previous bundle's answers resolve after the swap: not counted.
	for _, p := range old {
		h.postEvents(livestate.Event{Type: livestate.EventStart, Time: p.at + waitSecs, JobID: p.id})
	}
	st := h.svc.Tracker().Stats()
	if st.Joined != before.Joined || st.Window != 0 || st.Unmatched != before.Unmatched+uint64(len(old)) {
		t.Fatalf("tracker after the previous bundle's starts = %+v (before %+v)", st, before)
	}
	if h.cp.Controller().Status().State != controlplane.StateProbation {
		t.Fatalf("probation ended on the previous bundle's answers; status %+v", h.cp.Controller().Status())
	}

	for i := 0; i < window; i++ {
		if p := h.pumpJob(waitSecs); p.ModelVersion != 1 {
			t.Fatalf("probation answer from version %d", p.ModelVersion)
		}
	}
	for h.cp.Controller().Status().State == controlplane.StateProbation {
		if time.Now().After(deadline) {
			t.Fatalf("probation never ended; status %+v, online %+v", h.cp.Controller().Status(), h.svc.Tracker().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := h.cp.Controller().Status(); st.LastVerdict != controlplane.VerdictRolledBack {
		t.Fatalf("worse bundle not rolled back; status %+v, online %+v", st, h.svc.Tracker().Stats())
	}
	if _, v := h.svc.CurrentModel(); v != 0 {
		t.Fatalf("serving version %d after rollback, want 0", v)
	}
	if l := h.cp.Registry().List(); len(l) != 1 || l[0].Status != controlplane.StatusRolledBack {
		t.Fatalf("registry versions = %+v", l)
	}
}

// feedDay posts through /events the complete lifecycles of the shared
// trace's jobs submitted and ended within one day, moved past the harness
// clock and renumbered: the engine seeded from that trace tracks none of
// its jobs, so these are the corpus the default trainer retrains on. It
// returns how many lifecycles it fed.
func (h *cpHarness) feedDay() int {
	h.t.Helper()
	jobs := sharedFixture(h.t).Trace.Jobs
	submits := make([]int64, len(jobs))
	for i := range jobs {
		submits[i] = jobs[i].Submit
	}
	slices.Sort(submits)
	t0 := submits[5000]
	shift := h.now.Load() - t0
	var day []trace.Job
	for _, j := range jobs {
		if j.Submit >= t0 && j.Start > 0 && j.End > 0 && j.End <= t0+24*3600 {
			j.ID += 20_000_000
			j.Submit, j.Eligible, j.Start, j.End = j.Submit+shift, j.Eligible+shift, j.Start+shift, j.End+shift
			day = append(day, j)
		}
	}
	evs := livestate.EventsFromTrace(&trout.Trace{Jobs: day})
	h.now.Store(evs[len(evs)-1].Time + 60)
	for len(evs) > 0 {
		n := min(256, len(evs))
		h.postEvents(evs[:n]...)
		evs = evs[n:]
	}
	return len(day)
}

// holdoutScore is the judge's score of m on the most recent sixth of the
// rows a replay of tr with forest builds, computed straight from core.
func holdoutScore(t *testing.T, tr *trout.Trace, b *trout.Bundle, m *core.Model, forest *baselines.Forest) (controlplane.Eval, string) {
	t.Helper()
	ds, err := livestate.Replay(tr, &b.Cluster, features.Options{Seed: b.Model.Cfg.Seed}, forest)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := tscv.HoldoutRecent(ds.Len(), 1.0/6.0)
	if err != nil {
		t.Fatal(err)
	}
	reg := core.EvaluateRegression(m, ds, fold.Test)
	cls := core.EvaluateClassifier(m, ds, fold.Test)
	first, last := ds.Jobs[fold.Test[0]], ds.Jobs[fold.Test[len(fold.Test)-1]]
	return controlplane.Eval{MAEMinutes: reg.MAE, MAPE: reg.MAPE, HitRate: cls.Accuracy(), LongJobs: reg.N},
		fmt.Sprintf("%d jobs eligible %d..%d", len(fold.Test), first.Eligible, last.Eligible)
}

// TestControlPlaneDefaultTrainer drives the production retrain path with
// no injected trainer and no predict traffic: a day of lifecycles fed
// through /events, then POST /admin/retrain. The incumbent's judged score
// is its own model on rows replayed with its own runtime forest (not the
// candidate's), the verdict and the note with both scores, the holdout
// size and its eligibility range are recorded, the serving forest's memo
// is untouched, and a second service fed the same stream reaches the same
// verdict on the same scores.
func TestControlPlaneDefaultTrainer(t *testing.T) {
	var judged []controlplane.Manifest
	var wantNote string
	for i := 0; i < 2; i++ {
		h := newCPHarness(t, trout.ControlPlaneConfig{DriftThreshold: -1, CheckInterval: 5 * time.Millisecond})
		if n := h.feedDay(); n < 500 {
			t.Fatalf("fed %d lifecycles; a retrain needs 500", n)
		}
		inc, _ := h.svc.CurrentModel()
		if i == 0 {
			cand, err := h.svc.DefaultTrainer()(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := trout.LoadBundle(bytes.NewReader(cand.Blob))
			if err != nil {
				t.Fatal(err)
			}
			tr := &trout.Trace{Jobs: h.svc.LiveStore().Engine().CompletedJobs()}
			want, holdout := holdoutScore(t, tr, inc, inc.Model, inc.Runtime.Forest)
			if want.LongJobs == 0 {
				t.Fatal("the fed holdout has no long job; MAE would not be compared")
			}
			if cand.Incumbent != want || cand.Holdout != holdout {
				t.Fatalf("incumbent judged as %+v on %q, want %+v on %q", cand.Incumbent, cand.Holdout, want, holdout)
			}
			if other, _ := holdoutScore(t, tr, inc, inc.Model, fresh.Runtime.Forest); other == want {
				t.Fatalf("the candidate's forest scores the incumbent the same (%+v): the test cannot tell the forests apart", other)
			}
			if own, _ := holdoutScore(t, tr, inc, fresh.Model, fresh.Runtime.Forest); cand.Eval != own {
				t.Fatalf("candidate judged as %+v, want %+v", cand.Eval, own)
			}
			c, w := cand.Eval, cand.Incumbent
			wantNote = fmt.Sprintf("holdout %s: cand hit %.3f mae %.1f (long %d) vs inc hit %.3f mae %.1f (long %d)",
				holdout, c.HitRate, c.MAEMinutes, c.LongJobs, w.HitRate, w.MAEMinutes, w.LongJobs)
		}

		body, _ := scrape(t, h.srv.URL)
		evals := metricValue(t, body, "trout_jobruntime_evals_total")
		if code := postJSON(t, h.srv.URL+"/admin/retrain", nil, nil); code != http.StatusAccepted {
			t.Fatalf("admin/retrain status %d", code)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for {
			// The verdict's note is its last registry write.
			if l := h.cp.Registry().List(); len(l) == 1 && strings.HasPrefix(l[0].Note, "holdout ") {
				judged = append(judged, l[0])
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no verdict; status %+v, registry %+v", h.cp.Controller().Status(), h.cp.Registry().List())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := float64(inc.Runtime.Evals()); got != evals {
			t.Fatalf("the retrain moved the serving forest's evals %v -> %v", evals, got)
		}
		if j := h.svc.Tracker().Stats().Joined; j != 0 {
			t.Fatalf("%d outcomes joined; the retrain was to see no predict traffic", j)
		}
	}
	a, b := judged[0], judged[1]
	t.Logf("verdict %s: %s", a.Status, a.Note)
	if a.Status != controlplane.StatusActive && a.Status != controlplane.StatusRejected {
		t.Fatalf("v1 status %q", a.Status)
	}
	if !strings.HasPrefix(a.Note, wantNote) {
		t.Fatalf("verdict note %q, want the holdout and both scores %q", a.Note, wantNote)
	}
	if a.Status != b.Status || a.Note != b.Note || a.Eval != b.Eval || a.Samples != b.Samples {
		t.Fatalf("same stream, different verdicts:\n%+v\n%+v", a, b)
	}
}

// TestControlPlaneResumesOlderRegistry opens a registry as a build with a
// shadow phase left it, killed while a candidate was still at "shadow":
// the manifest has no long-job counts, v1 is active and v2 was never
// judged. The service resumes v1 and keeps v2 listed unjudged.
func TestControlPlaneResumesOlderRegistry(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := serializeBundle(t, resilientBundle(t)), worseBundle(t, resilientBundle(t))
	id1, id2 := blobFingerprint(v1), blobFingerprint(v2)
	for id, blob := range map[string][]byte{id1: v1, id2: v2} {
		if err := os.WriteFile(filepath.Join(dir, id+".gob"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	manifest := fmt.Sprintf(`{"active": 1, "versions": [
  {"version": 1, "id": %q, "created_unix": 1792221540, "watermark": 1701346250, "samples": 618,
   "eval": {"mae_minutes": 0, "mape": 0, "hit_rate": 0.99}, "status": "active",
   "note": "shadow: cand hit 0.000 mae 0.0 (n=4) vs inc hit 0.000 mae 0.0 (n=4)"},
  {"version": 2, "id": %q, "parent": %q, "created_unix": 1792221604, "watermark": 1701454936, "samples": 601,
   "eval": {"mae_minutes": 0, "mape": 0, "hit_rate": 0.99}, "status": "shadow", "note": "trigger: manual"}]}`,
		id1, id2, id1)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	h := newCPHarness(t, trout.ControlPlaneConfig{RegistryDir: dir, DriftThreshold: -1})
	if hr := h.health(); hr.Model.Version != 1 || hr.Model.Fingerprint != id1 {
		t.Fatalf("serving %+v, want the registry's active version 1 (%s)", hr.Model, id1)
	}
	if l := h.cp.Registry().List(); len(l) != 2 || l[1].Status != controlplane.StatusShadow || l[1].Eval.LongJobs != 0 {
		t.Fatalf("registry versions = %+v", l)
	}
}
