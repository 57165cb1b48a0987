// Service-level replication tests: a leader and a follower dashboard
// wired through /replication/*, the follower readiness contract (503 on
// /ready while behind, /predict still answering), leader/follower answer
// equivalence down to the 33-feature vector, ingest admission control,
// and the fault-window response-validity contract under load.
package trout_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/resilience"
)

var replTestRetry = resilience.Policy{InitialInterval: 5 * time.Millisecond, MaxInterval: 50 * time.Millisecond}

// leaderService builds a WAL-backed dashboard service seeded with the
// shared experiment's trace.
func leaderService(t *testing.T, cfg trout.ServiceConfig) (*httptest.Server, *trout.Service, *fixture) {
	t.Helper()
	e := sharedFixture(t)
	if cfg.Live == nil {
		st, err := livestate.OpenStore(livestate.StoreOptions{
			Dir: t.TempDir(), SegmentBytes: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Live = st
	}
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc, e
}

// followerService builds a follower replicating from leaderURL. The pull
// loop is NOT started; call svc.StartReplication when the test wants it.
func followerService(t *testing.T, leaderURL string) (*httptest.Server, *trout.Service) {
	t.Helper()
	e := sharedFixture(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{
		LeaderURL: leaderURL,
		Replication: replication.FollowerConfig{
			Retry: replTestRetry, PollWait: 100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func waitReplicated(t *testing.T, leader, follower *trout.Service) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		lm, fm := leader.LiveStore().Metrics(), follower.LiveStore().Metrics()
		if fm.LSN == lm.LSN && fm.Gen == lm.Gen && follower.Follower().Stats().CaughtUp {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	lm, fm := leader.LiveStore().Metrics(), follower.LiveStore().Metrics()
	t.Fatalf("follower never caught up: leader lsn=%d gen=%d follower lsn=%d gen=%d",
		lm.LSN, lm.Gen, fm.LSN, fm.Gen)
}

// TestFollowerReadyReflectsReplicationLag pins the satellite-3 regression:
// a follower that has not caught up answers 503 on /ready (load balancers
// must skip it) while /predict still serves — degraded, but available and
// tier-tagged.
func TestFollowerReadyReflectsReplicationLag(t *testing.T) {
	lsrv, lsvc, e := leaderService(t, trout.ServiceConfig{})
	fsrv, fsvc := followerService(t, lsrv.URL)

	// Replication not started: the replica is maximally behind.
	resp, err := http.Get(fsrv.URL + "/ready")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/ready on a behind follower = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "error") {
		t.Fatalf("503 without structured error body: %s", body)
	}

	// /predict still answers, tier-tagged, from the (still empty) replica.
	at := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	preq := fmt.Sprintf(`{"at":%d,"job":{"user":3,"partition":"shared","req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`, at)
	var pr struct {
		Tier   string `json:"tier"`
		Source string `json:"snapshot_source"`
	}
	presp, err := http.Post(fsrv.URL+"/predict", "application/json", strings.NewReader(preq))
	if err != nil {
		t.Fatal(err)
	}
	if presp.StatusCode != http.StatusOK {
		presp.Body.Close()
		t.Fatalf("/predict on a behind follower = %d, want 200", presp.StatusCode)
	}
	if err := jsonDecode(presp.Body, &pr); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if pr.Tier == "" {
		t.Fatal("degraded prediction lost its tier tag")
	}

	// Catch up; /ready must flip to 200 and /health must not be degraded.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	fsvc.StartReplication(ctx)
	waitReplicated(t, lsvc, fsvc)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(fsrv.URL + "/ready")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/ready stayed %d after catch-up", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var h struct {
		Status      string `json:"status"`
		Replication struct {
			Role     string `json:"role"`
			CaughtUp bool   `json:"caught_up"`
		} `json:"replication"`
	}
	if code := getJSON(t, fsrv.URL+"/health", &h); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if h.Status != "ok" || h.Replication.Role != "follower" || !h.Replication.CaughtUp {
		t.Fatalf("follower health after catch-up: %+v", h)
	}
}

// TestLeaderFollowerIdenticalAnswers is the convergence acceptance at the
// API surface: after events flow leader→follower, both nodes produce the
// same 33-feature vector and the same prediction for a probe job, refuse
// the same requests with the same bodies, and the follower forwards writes
// to the leader.
func TestLeaderFollowerIdenticalAnswers(t *testing.T) {
	lsrv, lsvc, e := leaderService(t, trout.ServiceConfig{})
	fsrv, fsvc := followerService(t, lsrv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	fsvc.StartReplication(ctx)
	waitReplicated(t, lsvc, fsvc)

	// Probe job enters through the LEADER's event stream.
	const probe = 9200001
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"type":"submit","time":%d,"job":{"id":%d,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n", now, probe, now)
	fmt.Fprintf(&buf, `{"type":"eligible","time":%d,"job_id":%d}`+"\n", now+5, probe)
	resp, err := http.Post(lsrv.URL+"/events", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader events status %d", resp.StatusCode)
	}
	waitReplicated(t, lsvc, fsvc)

	// Identical 33-feature vectors for the probe job on both nodes.
	var lf, ff map[string]float64
	if code := getJSON(t, fmt.Sprintf("%s/features?job=%d", lsrv.URL, probe), &lf); code != 200 {
		t.Fatalf("leader features status %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/features?job=%d", fsrv.URL, probe), &ff); code != 200 {
		t.Fatalf("follower features status %d", code)
	}
	if len(lf) != len(trout.FeatureNames) {
		t.Fatalf("leader served %d features, want %d", len(lf), len(trout.FeatureNames))
	}
	if len(lf) != len(ff) {
		t.Fatalf("feature count mismatch: leader %d follower %d", len(lf), len(ff))
	}
	for name, lv := range lf {
		if fv, ok := ff[name]; !ok || fv != lv {
			t.Fatalf("feature %q diverged: leader %v follower %v (ok=%v)", name, lv, ff[name], ok)
		}
	}

	// Identical predictions, byte for byte.
	preq := fmt.Sprintf(`{"at":%d,"job":{"user":5,"partition":"shared","req_cpus":16,"req_mem_gb":32,"req_nodes":1,"time_limit":14400,"priority":2500}}`, now+10)
	post := func(url string) string {
		resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(preq))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict on %s: %d", url, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if lp, fp := post(lsrv.URL), post(fsrv.URL); lp != fp {
		t.Fatalf("predictions diverged:\nleader:   %s\nfollower: %s", lp, fp)
	}

	// One state, one behaviour: what the engine cannot answer is refused
	// identically on the leader (booted from a trace) and the follower
	// (which never saw that trace, only the replicated engine) — a stale
	// instant is a 422 on single and batch, a finished or unknown job a
	// 404 on /predict and /features.
	stale := now - 7200
	job := `{"user":5,"partition":"shared","req_cpus":16,"req_mem_gb":32,"req_nodes":1,"time_limit":14400}`
	finished := e.Trace.Jobs[len(e.Trace.Jobs)-1].ID
	for _, c := range []struct {
		path, body string // GET when body is empty
		want       int
	}{
		{"/predict", fmt.Sprintf(`{"at":%d,"job":%s}`, stale, job), http.StatusUnprocessableEntity},
		{"/predict/batch", fmt.Sprintf(`{"at":%d,"jobs":[%s,%s]}`, stale, job, job), http.StatusUnprocessableEntity},
		{fmt.Sprintf("/predict?job=%d", finished), "", http.StatusNotFound},
		{fmt.Sprintf("/features?job=%d", finished), "", http.StatusNotFound},
		{"/predict?job=99999999", "", http.StatusNotFound},
		{"/features?job=99999999", "", http.StatusNotFound},
	} {
		lcode, lbody := errorReply(t, lsrv.URL+c.path, c.body)
		fcode, fbody := errorReply(t, fsrv.URL+c.path, c.body)
		if lcode != c.want || fcode != c.want || lbody != fbody {
			t.Fatalf("%s: leader %d %+v, follower %d %+v, want identical %d",
				c.path, lcode, lbody, fcode, fbody, c.want)
		}
	}

	// Writes on the follower are not handled locally: an event posted to
	// it lands in the leader's engine and replicates back.
	const viaFollower = 9200002
	ack := postEvents(t, fsrv.URL, cacheEventsBody(viaFollower, now+20))
	if ack.Applied != 2 {
		t.Fatalf("write through the follower: ack %+v", ack)
	}
	waitReplicated(t, lsvc, fsvc)
	for _, url := range []string{lsrv.URL, fsrv.URL} {
		if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", url, viaFollower), &struct{}{}); code != 200 {
			t.Fatalf("job written through the follower: %s answers %d", url, code)
		}
	}
}

// TestFollowerReplicationMetrics pins the follower's trout_replication_*
// families to what replication did: caught up with no lag after the
// bootstrap re-snapshot (the leader's seed is a state swap, so the replica
// starts from /replication/snapshot), one applied record per event the
// leader applied, and fetch errors once the leader is gone.
func TestFollowerReplicationMetrics(t *testing.T) {
	lsrv, lsvc, e := leaderService(t, trout.ServiceConfig{})
	fsrv, fsvc := followerService(t, lsrv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	fsvc.StartReplication(ctx)
	waitReplicated(t, lsvc, fsvc)

	body, _ := scrape(t, fsrv.URL)
	for series, want := range map[string]float64{
		"trout_replication_caught_up":   1,
		"trout_replication_lag_events":  0,
		"trout_replication_lag_seconds": 0,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %v after catch-up, want %v", series, got, want)
		}
	}
	if n := metricValue(t, body, "trout_replication_resnapshots_total"); n < 1 {
		t.Errorf("trout_replication_resnapshots_total = %v, want >= 1 (bootstrap from a seeded leader)", n)
	}
	applied0 := metricValue(t, body, "trout_replication_records_applied_total")

	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	applied := 0
	for i := range 3 {
		applied += postEvents(t, lsrv.URL, cacheEventsBody(9300001+i, now+int64(10*i))).Applied
	}
	if applied != 6 {
		t.Fatalf("leader applied %d events, want 6", applied)
	}
	waitReplicated(t, lsvc, fsvc)
	body, _ = scrape(t, fsrv.URL)
	if got := metricValue(t, body, "trout_replication_records_applied_total") - applied0; got != float64(applied) {
		t.Errorf("trout_replication_records_applied_total grew by %v, want the %d events the leader applied", got, applied)
	}

	// The snapshot a re-snapshotting follower fetches is served at the
	// leader's position.
	resp, err := http.Get(lsrv.URL + "/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if want := fmt.Sprint(lsvc.LiveStore().Metrics().LSN); resp.StatusCode != http.StatusOK || resp.Header.Get(replication.HeaderSnapshotLSN) != want {
		t.Errorf("/replication/snapshot: %d at LSN %q, want 200 at %s", resp.StatusCode, resp.Header.Get(replication.HeaderSnapshotLSN), want)
	}

	lsrv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, _ = scrape(t, fsrv.URL)
		if metricValue(t, body, "trout_replication_fetch_errors_total") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trout_replication_fetch_errors_total stayed 0 with the leader closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsRefusedBodyIsDurable: a body refused partway (here the
// bad-line budget's 400) leaves its applied prefix in the engine, where
// /predict serves it — so that prefix must be fsynced before the reply. The
// store is abandoned without Close, as kill -9 would leave it; what reopens
// from the directory must equal the live engine.
func TestEventsRefusedBodyIsDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := livestate.OpenStore(livestate.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lsrv, lsvc, e := leaderService(t, trout.ServiceConfig{Live: st, MaxBadStateRows: 2})
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	body := cacheEventsBody(9300001, now) + cacheEventsBody(9300002, now+10) + "bad\nbad\nbad\n"
	code, eb := errorReply(t, lsrv.URL+"/events", body)
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, "undecodable") {
		t.Fatalf("over-budget body gave %d %q, want the bad-line 400", code, eb.Error)
	}
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", lsrv.URL, 9300002), &struct{}{}); code != 200 {
		t.Fatalf("applied prefix of the refused body answers %d, want 200", code)
	}

	reopened, err := livestate.OpenStore(livestate.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	live := lsvc.LiveStore()
	if got, want := reopened.Metrics().LSN, live.Metrics().LSN; got != want || want == 0 {
		t.Fatalf("reopened store at LSN %d, live store at %d", got, want)
	}
	if got, want := reopened.Engine().Fingerprint(), live.Engine().Fingerprint(); got != want {
		t.Fatalf("reopened engine %x != live engine %x: served events were not on disk", got, want)
	}
}

// TestIngestAdmissionSheds pins the load-shed contract on the leader's
// ingest path: with the single admission slot held by a slow upload, the
// next ingest request sheds immediately with 429 + Retry-After and the
// decision surfaces on /metrics.
func TestIngestAdmissionSheds(t *testing.T) {
	lsrv, _, _ := leaderService(t, trout.ServiceConfig{
		Admission: resilience.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})

	// Hold the only slot with an /events upload whose body never ends.
	pr, pw := io.Pipe()
	defer pw.Close() // a failed assertion must not leave the upload (and srv.Close) hanging
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(lsrv.URL+"/events", "application/jsonl", pr)
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	// Wait until the slot is actually held (probing with /events before
	// that could itself take the slot and shed the upload instead), then
	// expect an immediate shed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mresp, err := http.Get(lsrv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := io.ReadAll(mresp.Body)
		mresp.Body.Close()
		if strings.Contains(string(mb), "trout_admission_in_flight 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upload never took the admission slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var shed *http.Response
	for {
		resp, err := http.Post(lsrv.URL+"/events", "application/jsonl", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("never shed while the slot was held")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := jsonDecode(shed.Body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 without structured error body (err=%v)", err)
	}
	shed.Body.Close()

	pw.Close() // release the slot
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held upload finished with %d", code)
	}

	mresp, err := http.Get(lsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mb), `trout_admission_total{decision="shed_queue_full"}`) {
		t.Fatal("shed decision missing from /metrics")
	}
	if !strings.Contains(string(mb), `trout_admission_total{decision="accepted"}`) {
		t.Fatal("accepted decision missing from /metrics")
	}
}

// TestFaultWindowResponsesAreValid drives a mixed smokeLoad workload at a
// leader whose admission gate is deliberately tiny, then applies ISSUE 6's
// acceptance: every response in the window is a valid prediction, a
// structured error, or a 429 with Retry-After — never a hang, an empty
// reply, or an unstructured failure.
func TestFaultWindowResponsesAreValid(t *testing.T) {
	lsrv, _, e := leaderService(t, trout.ServiceConfig{
		Admission: resilience.AdmissionConfig{
			MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Millisecond,
		},
	})
	sc := smokeLoad(t, lsrv.URL, 300, 8, e.Trace.Jobs[len(e.Trace.Jobs)-1].End+100, 9_300_000)
	if sc.Total != 300 {
		t.Fatalf("smokeLoad issued %d requests, want 300", sc.Total)
	}
	if len(sc.Invalid) != 0 {
		t.Fatalf("%d invalid responses or transport errors: %v", len(sc.Invalid), sc.Invalid)
	}
	for code := range sc.Status {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d in fault window: %v", code, sc.Status)
		}
	}
}

func jsonDecode(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

// TestWriteProxyTraceContinuity pins the cross-node trace contract for
// follower write forwarding: one X-Request-ID must survive the reverse
// proxy hop (the follower forwards the inbound headers itself), so the
// leader's and follower's access logs tell one story about one write —
// and a follower pointed at an unparseable leader answers writes with a
// structured 502 instead of proxying nowhere.
func TestWriteProxyTraceContinuity(t *testing.T) {
	const traceID = "feedfacecafef00d"
	eventsBody := `{"type":"submit","time":3000,"job":{"id":777001,"user":1,"partition":"shared","submit":3000,"req_cpus":1,"time_limit":600}}` + "\n"
	// follower builds a follower of leaderURL that logs to sb and exports
	// every trace to file.
	follower := func(t *testing.T, leaderURL string, sb *syncBuf, file string) (*httptest.Server, *trout.Service) {
		t.Helper()
		flog, err := obs.NewLogger(sb, "info", "json")
		if err != nil {
			t.Fatal(err)
		}
		fsvc, err := trout.NewServiceWith(resilientBundle(t), nil, trout.ServiceConfig{
			LeaderURL: leaderURL,
			Logger:    flog,
			Tracing:   obs.TracerConfig{SampleRate: 1, Path: file},
			Replication: replication.FollowerConfig{
				Retry: replTestRetry, PollWait: 100 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		fsrv := httptest.NewServer(fsvc.Handler())
		t.Cleanup(fsrv.Close)
		return fsrv, fsvc
	}
	// rootOf returns the root span of traceID in an export file.
	rootOf := func(t *testing.T, file string) obs.SpanJSON {
		t.Helper()
		for _, line := range readTraceFile(t, file) {
			if line.TraceID == traceID {
				return line.Spans[0]
			}
		}
		t.Fatalf("trace %s not exported to %s", traceID, file)
		return obs.SpanJSON{}
	}

	t.Run("reverseproxy", func(t *testing.T) {
		var lsb, fsb syncBuf
		llog, err := obs.NewLogger(&lsb, "info", "json")
		if err != nil {
			t.Fatal(err)
		}
		lfile, ffile := filepath.Join(t.TempDir(), "leader.jsonl"), filepath.Join(t.TempDir(), "follower.jsonl")
		lsrv, lsvc, _ := leaderService(t, trout.ServiceConfig{
			Logger: llog, Tracing: obs.TracerConfig{SampleRate: 1, Path: lfile},
		})
		fsrv, fsvc := follower(t, lsrv.URL, &fsb, ffile)

		req, err := http.NewRequest(http.MethodPost, fsrv.URL+"/events", strings.NewReader(eventsBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		req.Header.Set(obs.TraceIDHeader, traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded write = %d, want 200", resp.StatusCode)
		}
		if got := resp.Header.Get(obs.TraceIDHeader); got != traceID {
			t.Fatalf("final response echoes trace ID %q, want %q", got, traceID)
		}

		// Both hops logged the write under the SAME trace ID.
		for side, sb := range map[string]*syncBuf{"leader": &lsb, "follower": &fsb} {
			entry := accessLogs(t, sb, 1)[0]
			if entry["trace_id"] != traceID {
				t.Fatalf("%s access log trace_id = %v, want %q", side, entry["trace_id"], traceID)
			}
			if entry["path"] != "/events" || entry["method"] != "POST" {
				t.Fatalf("%s logged %v %v, want POST /events", side, entry["method"], entry["path"])
			}
		}

		// And the span trees join up: the proxy carried the follower's root
		// span across as X-Trout-Parent-Span, so the leader's root links to it.
		lsvc.Tracer().Flush()
		fsvc.Tracer().Flush()
		froot, lroot := rootOf(t, ffile), rootOf(t, lfile)
		if lroot.Link == nil || lroot.Link.TraceID != traceID || lroot.Link.SpanID != froot.SpanID {
			t.Fatalf("leader root link %+v does not point at the follower's root span %s", lroot.Link, froot.SpanID)
		}
	})

	t.Run("bad-leader-url", func(t *testing.T) {
		var sb syncBuf
		fsrv, _ := follower(t, "not a url", &sb, filepath.Join(t.TempDir(), "follower.jsonl"))
		code, eb := errorReply(t, fsrv.URL+"/events", eventsBody)
		if code != http.StatusBadGateway || !strings.Contains(eb.Error, "bad leader URL") {
			t.Fatalf("write through a follower with a bad leader URL gave %d %q, want 502", code, eb.Error)
		}
	})
}
