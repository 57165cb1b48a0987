// Tests for the live-state engine's contract with the offline trace scan,
// its oracle: event-replayed snapshots must reproduce the scan's feature
// vectors bit-for-bit, and the scan itself must honor open intervals
// (pending jobs with no start, running jobs with no end).
package trout_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	trout "repro"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/trace"
)

// TestLiveStateEquivalence replays the shared experiment's trace as an
// event stream and checks that at sampled instants the engine's indexed
// snapshot produces feature vectors byte-identical to the whole-trace
// scan. Float sums are order-dependent, so the trace copy is sorted
// by job ID — the order accounting dumps arrive in, and the order the
// engine emits.
func TestLiveStateEquivalence(t *testing.T) {
	e := sharedExperiment(t)
	jobs := append([]trace.Job(nil), e.Trace.Jobs...)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	tr := &trout.Trace{Jobs: jobs}

	evs := livestate.EventsFromTrace(tr)
	if len(evs) < len(jobs)*2 {
		t.Fatalf("only %d events from %d jobs", len(evs), len(jobs))
	}
	eng := livestate.NewEngine()

	users := map[int]bool{}
	parts := map[string]bool{}
	for i := range jobs {
		users[jobs[i].User] = true
		parts[jobs[i].Partition] = true
	}
	userList := make([]int, 0, len(users))
	for u := range users {
		userList = append(userList, u)
	}
	sort.Ints(userList)
	partList := make([]string, 0, len(parts))
	for p := range parts {
		partList = append(partList, p)
	}
	sort.Strings(partList)

	checked := 0
	for i := range evs {
		if err := eng.ApplyEvent(evs[i]); err != nil {
			t.Fatalf("event %d (%+v): %v", i, evs[i], err)
		}
		// Only compare at time boundaries (every event at this instant
		// applied), sampled so the O(N) scan side stays affordable.
		if i+1 < len(evs) && evs[i+1].Time == evs[i].Time {
			continue
		}
		if i%211 != 0 {
			continue
		}
		at := evs[i].Time
		target := trace.Job{
			ID: 9_000_000 + i, User: userList[checked%len(userList)],
			Partition: partList[checked%len(partList)],
			Submit:    at, Eligible: at,
			ReqCPUs: 8, ReqMemGB: 16, ReqNodes: 1, TimeLimit: 7200, Priority: 3000,
		}
		liveRow, err := features.SnapshotRow(eng.SnapshotAt(target, at), e.Cluster, e.Data.Runtime)
		if err != nil {
			t.Fatalf("live row at %d: %v", at, err)
		}
		scanRow, err := features.SnapshotRow(trout.SnapshotAtInstant(tr, at, target), e.Cluster, e.Data.Runtime)
		if err != nil {
			t.Fatalf("scan row at %d: %v", at, err)
		}
		for k := range scanRow {
			if liveRow[k] != scanRow[k] {
				t.Fatalf("instant %d feature %s: live %v != scan %v",
					at, trout.FeatureNames[k], liveRow[k], scanRow[k])
			}
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d instants compared", checked)
	}
	t.Logf("compared %d instants bit-for-bit", checked)
}

// TestServedFeaturesMatchDataset: served ≡ offline, bit for bit. A service
// fed by /events alone gets the shared experiment's event stream up to a
// sampled job's eligibility instant, and GET /features?job= for that job
// (pending there: its wait is not zero) must carry the bits of its row in
// the dataset the model trained on, which the same engine built by
// replaying the same stream.
func TestServedFeaturesMatchDataset(t *testing.T) {
	e := sharedExperiment(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), nil, trout.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	var waited []int // rows in eligibility order
	for i := range e.Data.Jobs {
		if j := &e.Data.Jobs[i]; j.Start > j.Eligible {
			waited = append(waited, i)
		}
	}
	var picks []int
	parts := map[string]bool{}
	for k := 0; k < len(waited); k += max(1, len(waited)/30) {
		picks = append(picks, waited[k])
		parts[e.Data.Jobs[waited[k]].Partition] = true
	}
	if len(picks) < 20 || len(parts) < 3 {
		t.Fatalf("%d pending jobs sampled over %d partitions; want at least 20 over 3", len(picks), len(parts))
	}
	evs := livestate.EventsFromTrace(e.Trace)
	next := 0
	for _, i := range picks {
		job := &e.Data.Jobs[i]
		lo := next
		for next < len(evs) && evs[next].Time <= job.Eligible {
			next++
		}
		var body bytes.Buffer
		if err := livestate.WriteEvents(&body, evs[lo:next]); err != nil {
			t.Fatal(err)
		}
		if ack := postEvents(t, srv.URL, body.String()); ack.Applied != next-lo || ack.Rejected != 0 {
			t.Fatalf("events up to %d: ack %+v for %d events", job.Eligible, ack, next-lo)
		}
		var served map[string]float64
		if code := getJSON(t, fmt.Sprintf("%s/features?job=%d", srv.URL, job.ID), &served); code != http.StatusOK {
			t.Fatalf("features for job %d: status %d", job.ID, code)
		}
		for f, name := range trout.FeatureNames {
			if math.Float64bits(served[name]) != math.Float64bits(e.Data.X[i][f]) {
				t.Fatalf("job %d feature %q: served %v, dataset %v", job.ID, name, served[name], e.Data.X[i][f])
			}
		}
	}
	t.Logf("%d served rows over %d partitions match the dataset bit for bit", len(picks), len(parts))
}

// TestSnapshotAtInstantOpenIntervals is the regression test for the
// closed-interval bug: jobs with Start == 0 (still queued) or End == 0
// (still running) used to vanish from snapshots, silently emptying the
// queue-pressure features on live traces.
func TestSnapshotAtInstantOpenIntervals(t *testing.T) {
	mk := func(id int, submit, eligible, start, end int64) trace.Job {
		return trace.Job{
			ID: id, User: 1, Partition: "shared", Submit: submit,
			Eligible: eligible, Start: start, End: end,
			ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 3600, Priority: 1000,
		}
	}
	tr := &trout.Trace{Jobs: []trace.Job{
		mk(1, 100, 110, 0, 0),     // pending forever: no start
		mk(2, 100, 110, 120, 0),   // running forever: no end
		mk(3, 100, 110, 120, 130), // completed
	}}
	target := mk(99, 500, 500, 0, 0)
	snap := trout.SnapshotAtInstant(tr, 500, target)
	if len(snap.Pending) != 1 || snap.Pending[0].ID != 1 {
		t.Fatalf("open-interval pending dropped: %+v", snap.Pending)
	}
	if len(snap.Running) != 1 || snap.Running[0].ID != 2 {
		t.Fatalf("open-interval running dropped: %+v", snap.Running)
	}

	// Same bug existed in the by-ID path; job 99 in-trace sees 1 and 2.
	tr2 := &trout.Trace{Jobs: append(tr.Jobs, target)}
	snap2, err := trout.SnapshotFromTrace(tr2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Pending) != 1 || len(snap2.Running) != 1 {
		t.Fatalf("SnapshotFromTrace drops open intervals: pending %d running %d",
			len(snap2.Pending), len(snap2.Running))
	}
}

// TestServiceEventsEndpoint streams lifecycle events into a running
// service and checks the live engine answers the subsequent prediction
// (snapshot_source "live"), while a job the events have not made pending
// is the engine's 404.
func TestServiceEventsEndpoint(t *testing.T) {
	srv, e := testService(t)
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"type":"submit","time":%d,"job":{"id":9000001,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n", now, now)
	fmt.Fprintf(&buf, `{"type":"eligible","time":%d,"job_id":9000001}`+"\n", now+5)
	buf.WriteString("not an event\n") // within the bad-line budget
	resp, err := http.Post(srv.URL+"/events", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, body)
	}
	var er struct {
		Applied  int `json:"applied"`
		BadLines int `json:"bad_lines"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Applied != 2 || er.BadLines != 1 {
		t.Fatalf("events response %+v", er)
	}

	var p struct {
		Source string `json:"snapshot_source"`
	}
	if code := getJSON(t, srv.URL+"/predict?job=9000001", &p); code != 200 {
		t.Fatalf("predict status %d", code)
	}
	if p.Source != "live" {
		t.Fatalf("tracked pending job answered by %q, want live", p.Source)
	}

	// A completed mid-trace job is not pending in the engine, and there is
	// no second state to dig it out of.
	histID := e.Trace.Jobs[len(e.Trace.Jobs)/2].ID
	if code := getJSON(t, fmt.Sprintf("%s/predict?job=%d", srv.URL, histID), &p); code != http.StatusNotFound {
		t.Fatalf("historical predict status %d, want 404", code)
	}
}

// TestServiceEventsLineLimits pins the /events line scanner's two limits:
// its buffer must grow for a line longer than its initial 1 MiB, and a line
// over the 4 MiB cap is a structured 400, not a truncated apply.
func TestServiceEventsLineLimits(t *testing.T) {
	srv, e := testService(t)
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	submit := fmt.Sprintf(`{"type":"submit","time":%d,"job":{"id":9000002,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`, now, now)

	padded := submit + strings.Repeat(" ", 2<<20-len(submit)) + "\n"
	if ack := postEvents(t, srv.URL, padded); ack.Applied != 1 || ack.BadLines != 0 {
		t.Fatalf("2 MiB line: ack %+v, want 1 applied", ack)
	}

	over := submit + strings.Repeat(" ", 4<<20) + "\n"
	code, eb := errorReply(t, srv.URL+"/events", over)
	if code != http.StatusBadRequest || !strings.Contains(eb.Error, "token too long") {
		t.Fatalf("line over 4 MiB gave %d %q, want 400 token too long", code, eb.Error)
	}
}

// TestServiceEventsBlankLines: a line of JSON whitespace is blank on
// /events, as on POST /state — skipped, not a bad line, so it spends none
// of the budget. (The budget here is 1, the smallest a ServiceConfig can
// set: 0 means the default.)
func TestServiceEventsBlankLines(t *testing.T) {
	e := sharedExperiment(t)
	svc, err := trout.NewServiceWith(resilientBundle(t), e.Trace, trout.ServiceConfig{MaxBadStateRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	now := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 100
	body := fmt.Sprintf(` {"type":"submit","time":%d,"job":{"id":9000003,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n \t\n\t\n", now, now) +
		fmt.Sprintf("   \r\n{\"type\":\"eligible\",\"time\":%d,\"job_id\":9000003}\t\n \n", now+5)
	if ack := postEvents(t, srv.URL, body); ack.Applied != 2 || ack.BadLines != 0 {
		t.Fatalf("ack %+v, want 2 applied and no bad lines", ack)
	}
}

// TestServiceMetricsEndpoint checks the Prometheus exposition renders and
// carries the livestate and fallback series.
func TestServiceMetricsEndpoint(t *testing.T) {
	srv, _ := testService(t)
	// Generate at least one observed request first.
	if code := getJSON(t, srv.URL+"/health", &struct{}{}); code != 200 {
		t.Fatalf("health %d", code)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE trout_predictions_total counter",
		"# TYPE trout_http_request_duration_seconds histogram",
		"trout_http_requests_total{path=\"/health\",code=\"200\"}",
		"trout_livestate_events_total{type=\"seed\"}",
		"trout_livestate_apply_errors_total",
		"trout_queue_pending",
		"trout_wal_lag_records",
		"trout_checkpoints_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}
