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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	trout "repro"
	"repro/internal/controlplane"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/trace"
)

// oraclePredictor is a synthetic retrain product with a fixed opinion —
// tests pick the opinion to be exactly right (promotion path) or absurdly
// wrong (rejection path) about the realized waits they drive.
type oraclePredictor struct {
	prob    float64
	minutes float64
	long    bool
}

func (p oraclePredictor) ShadowPredict(*features.Snapshot) (float64, float64, bool, error) {
	return p.prob, p.minutes, p.long, nil
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
	e := sharedExperiment(t)
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
// tracker and the shadow scorer), then post its start event with the given
// realized wait. Returns the served prediction.
func (h *cpHarness) pumpJob(waitSecs int64) cpPredict {
	h.t.Helper()
	h.id++
	id := 9_000_000 + h.id
	at := h.now.Load()
	h.now.Store(at + waitSecs + 60)
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
	// Give the shadow worker a beat to dequeue before the outcome lands.
	time.Sleep(2 * time.Millisecond)
	h.postEvents(livestate.Event{Type: livestate.EventStart, Time: at + waitSecs, JobID: id})
	return p
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
// (stubbed to an instant trainer whose candidate is exactly right about
// the new regime), shadow-scores the candidate against the incumbent on
// live /predict traffic, and hot-swaps it into serving — all while
// concurrent predict load observes zero failed requests and every response
// stays attributable to exactly one model version.
func TestControlPlaneEndToEnd(t *testing.T) {
	blob := serializeBundle(t, resilientBundle(t))
	wantFP := blobFingerprint(blob)
	// The new regime: every realized wait is 300 minutes. The candidate
	// nails it; whatever the incumbent answers is wrong by hours (MAE
	// trigger) or mis-classified (calibration-drift trigger).
	const waitSecs = 300 * 60
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: 0.2,
		MAEThreshold:   15,
		MinWindow:      8,
		CheckInterval:  5 * time.Millisecond,
		ShadowWindow:   6,
		RollbackFactor: -1, // the drifted tracker window would instantly fail probation
		Trainer: func(context.Context) (*controlplane.Candidate, error) {
			return &controlplane.Candidate{
				Blob:      blob,
				Predictor: oraclePredictor{prob: 0.97, minutes: 300, long: true},
				Samples:   512,
				Watermark: 12345,
			}, nil
		},
	})
	baseline, _ := h.svc.CurrentModel()
	load := startAttributionLoad(h.srv, &h.now, 3)

	deadline := time.Now().Add(60 * time.Second)
	for h.cp.Controller().Status().LastVerdict != controlplane.VerdictPromoted {
		if time.Now().After(deadline) {
			load.halt()
			t.Fatalf("promotion never happened; status %+v", h.cp.Controller().Status())
		}
		h.pumpJob(waitSecs)
	}
	st := h.cp.Controller().Status()
	if st.Retrains < 1 || st.Promotions != 1 {
		t.Fatalf("controller status = %+v", st)
	}

	// A few more requests land on the promoted model before we stop.
	for i := 0; i < 3; i++ {
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
	if !strings.Contains(models.Versions[0].Note, "shadow") {
		t.Fatalf("promotion note %q should record the shadow scores", models.Versions[0].Note)
	}
}

// TestControlPlaneRejectsWorseCandidate proves the judge's other arm: a
// manually triggered retrain whose candidate is absurdly wrong about live
// traffic is rejected after its shadow window, the incumbent keeps
// serving as version 0, and the rejection is recorded in the registry.
func TestControlPlaneRejectsWorseCandidate(t *testing.T) {
	blob := serializeBundle(t, resilientBundle(t))
	h := newCPHarness(t, trout.ControlPlaneConfig{
		DriftThreshold: -1, // autonomous trigger off: this test drives /admin/retrain
		MinWindow:      4,
		CheckInterval:  5 * time.Millisecond,
		ShadowWindow:   5,
		RollbackFactor: -1,
		Trainer: func(context.Context) (*controlplane.Candidate, error) {
			// Calls every 1-minute wait a 100000-minute epic: hit-rate 0
			// and an MAE no real incumbent could lose to.
			return &controlplane.Candidate{
				Blob:      blob,
				Predictor: oraclePredictor{prob: 0.98, minutes: 100000, long: true},
				Samples:   512,
				Watermark: 12345,
			}, nil
		},
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
		h.pumpJob(60) // realized waits are all quick-start
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
