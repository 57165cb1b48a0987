// Staleness regressions for the engine's queue memo, end to end: a
// memoized (pending, running, history) extraction may be shared across
// concurrent requests at the same instant, but every mutation of the engine
// — event ingest, /state reseed, follower WAL replay or re-snapshot — must
// drop it. A /predict issued after a mutation is acknowledged must never
// see the pre-mutation queue.
package trout_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	trout "repro"
	"repro/internal/trace"
)

// cacheEventsBody builds a submit+eligible JSONL pair for one synthetic
// pending job (both timestamps strictly before any probe instant).
func cacheEventsBody(id int, at int64) string {
	return fmt.Sprintf(
		`{"type":"submit","time":%d,"job":{"id":%d,"user":3,"partition":"shared","submit":%d,"req_cpus":8,"req_mem_gb":16,"req_nodes":1,"time_limit":7200,"priority":3000}}`+"\n"+
			`{"type":"eligible","time":%d,"job_id":%d}`+"\n",
		at, id, at, at+1, id)
}

// postCacheEvents uploads body to /events and fails the test unless every
// line was applied — an acknowledged 200 is the staleness tests' fence.
func postCacheEvents(t *testing.T, url, body string, wantApplied int) {
	t.Helper()
	resp, err := http.Post(url+"/events", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er struct {
		Applied  int `json:"applied"`
		Rejected int `json:"rejected"`
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Applied != wantApplied || er.Rejected != 0 {
		t.Fatalf("events applied=%d rejected=%d, want applied=%d", er.Applied, er.Rejected, wantApplied)
	}
}

// probePendingErr POSTs a hypothetical /predict at the given instant and
// returns (pending_in_snapshot, snapshot_source); goroutine-safe.
func probePendingErr(url string, at int64) (int, string, error) {
	body := fmt.Sprintf(`{"at":%d,"job":{"user":3,"partition":"shared","req_cpus":4,"req_mem_gb":8,"req_nodes":1,"time_limit":3600,"priority":1000}}`, at)
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, "", fmt.Errorf("predict status %d: %s", resp.StatusCode, b)
	}
	var p struct {
		Pending int    `json:"pending_in_snapshot"`
		Source  string `json:"snapshot_source"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		return 0, "", err
	}
	return p.Pending, p.Source, nil
}

func probePending(t *testing.T, url string, at int64) (int, string) {
	t.Helper()
	n, src, err := probePendingErr(url, at)
	if err != nil {
		t.Fatal(err)
	}
	return n, src
}

// TestSnapshotCacheInvalidatedByEvents is the core staleness regression:
// two probes at the SAME instant straddling an event upload must disagree —
// the second must include the newly submitted job even though the first
// populated the cache for that exact (version, at) key.
func TestSnapshotCacheInvalidatedByEvents(t *testing.T) {
	srv, e := testService(t)
	base := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 1000
	at := base + 500

	postCacheEvents(t, srv.URL, cacheEventsBody(9200001, base), 2)
	if n, src := probePending(t, srv.URL, at); n != 1 || src != "live" {
		t.Fatalf("after first job: pending=%d source=%q, want 1/live", n, src)
	}
	// Same instant again: served from cache, same answer.
	if n, _ := probePending(t, srv.URL, at); n != 1 {
		t.Fatalf("repeat probe: pending=%d, want 1", n)
	}

	// Second job becomes eligible BEFORE the probe instant. The acked 200
	// is the fence: the next probe at the same `at` must see it.
	postCacheEvents(t, srv.URL, cacheEventsBody(9200002, base+10), 2)
	if n, _ := probePending(t, srv.URL, at); n != 2 {
		t.Fatalf("post-event probe served stale snapshot: pending=%d, want 2", n)
	}

	// The repeat probe above must have been a memo hit, and every probe
	// after an event a miss — the hot path actually goes through the memo.
	text, _ := scrape(t, srv.URL)
	if hits := metricValue(t, text, `trout_snapshot_cache_requests_total{result="hit"}`); hits != 1 {
		t.Fatalf("queue-memo hits = %v, want 1 (the repeat probe)", hits)
	}
	if misses := metricValue(t, text, `trout_snapshot_cache_requests_total{result="miss"}`); misses != 2 {
		t.Fatalf("queue-memo misses = %v, want 2 (one per acknowledged upload)", misses)
	}
}

// TestSnapshotCacheInvalidatedByStateReseed: POST /state atomically swaps
// the trace and reseeds the engine; a probe at an instant that was cached
// against the old engine state must see the reseeded queue.
func TestSnapshotCacheInvalidatedByStateReseed(t *testing.T) {
	srv, e := testService(t)
	base := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 1000
	at := base + 500

	postCacheEvents(t, srv.URL, cacheEventsBody(9210001, base), 2)
	if n, src := probePending(t, srv.URL, at); n != 1 || src != "live" {
		t.Fatalf("pre-reseed: pending=%d source=%q, want 1/live", n, src)
	}

	// Reseed with three synthetic pending jobs at the same epoch.
	reseed := &trout.Trace{Jobs: append([]trace.Job(nil), e.Trace.Jobs...)}
	for i := 0; i < 3; i++ {
		reseed.Jobs = append(reseed.Jobs, trace.Job{
			ID: 9210101 + i, User: 5, Partition: "shared", State: "PENDING",
			Submit: base, Eligible: base + 1, ReqCPUs: 4, ReqMemGB: 8,
			ReqNodes: 1, TimeLimit: 3600, Priority: 2000,
		})
	}
	var buf bytes.Buffer
	if err := reseed.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/state", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state reseed status %d", resp.StatusCode)
	}

	if n, src := probePending(t, srv.URL, at); n != 3 || src != "live" {
		t.Fatalf("post-reseed probe served stale snapshot: pending=%d source=%q, want 3/live", n, src)
	}
}

// TestSnapshotCacheInvalidatedOnFollower: the follower's engine mutates
// via WAL replay (and via generation-bump re-snapshots after a leader
// reseed), not via local /events — its queue memo must track both.
func TestSnapshotCacheInvalidatedOnFollower(t *testing.T) {
	lsrv, lsvc, e := leaderService(t, trout.ServiceConfig{})
	fsrv, fsvc := followerService(t, lsrv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	fsvc.StartReplication(ctx)

	base := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 1000
	at := base + 500

	postCacheEvents(t, lsrv.URL, cacheEventsBody(9220001, base), 2)
	waitReplicated(t, lsvc, fsvc)
	if n, src := probePending(t, fsrv.URL, at); n != 1 || src != "live" {
		t.Fatalf("follower after replay: pending=%d source=%q, want 1/live", n, src)
	}

	// More WAL entries replay into the follower engine; the follower's
	// memoized queue at `at` must die with the replayed mutation.
	postCacheEvents(t, lsrv.URL, cacheEventsBody(9220002, base+10), 2)
	waitReplicated(t, lsvc, fsvc)
	if n, _ := probePending(t, fsrv.URL, at); n != 2 {
		t.Fatalf("follower served stale snapshot after replay: pending=%d, want 2", n)
	}

	// Leader reseed bumps the replication generation; the follower
	// re-snapshots wholesale and must again drop every cached extraction.
	reseed := &trout.Trace{Jobs: append([]trace.Job(nil), e.Trace.Jobs...)}
	for i := 0; i < 3; i++ {
		reseed.Jobs = append(reseed.Jobs, trace.Job{
			ID: 9220101 + i, User: 5, Partition: "shared", State: "PENDING",
			Submit: base, Eligible: base + 1, ReqCPUs: 4, ReqMemGB: 8,
			ReqNodes: 1, TimeLimit: 3600, Priority: 2000,
		})
	}
	var buf bytes.Buffer
	if err := reseed.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(lsrv.URL+"/state", "application/jsonl", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader reseed status %d", resp.StatusCode)
	}
	waitReplicated(t, lsvc, fsvc)
	if n, _ := probePending(t, fsrv.URL, at); n != 3 {
		t.Fatalf("follower served stale snapshot after gen bump: pending=%d, want 3", n)
	}
}

// TestPredictRacingIngestNeverStale: sequentially, a probe after each
// acked event must count exactly the jobs acked so far; concurrently,
// every predictor goroutine must observe a non-decreasing pending count
// while an ingester adds jobs (a cache serving a pre-event snapshot for a
// post-event version would show up as a decrease or a sequential short
// count).
func TestPredictRacingIngestNeverStale(t *testing.T) {
	srv, e := testService(t)
	base := e.Trace.Jobs[len(e.Trace.Jobs)-1].End + 1000
	at := base + 2000

	const seq = 10
	for i := 1; i <= seq; i++ {
		postCacheEvents(t, srv.URL, cacheEventsBody(9230000+i, base+int64(2*i)), 2)
		if n, _ := probePending(t, srv.URL, at); n != i {
			t.Fatalf("after %d acked events: pending=%d", i, n)
		}
	}

	const extra = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, _, err := probePendingErr(srv.URL, at)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if n < last {
					select {
					case errs <- fmt.Errorf("pending went backwards: %d after %d", n, last):
					default:
					}
					return
				}
				last = n
			}
		}()
	}
	for i := 1; i <= extra; i++ {
		postCacheEvents(t, srv.URL, cacheEventsBody(9240000+i, base+int64(2*seq+2*i)), 2)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n, _ := probePending(t, srv.URL, at); n != seq+extra {
		t.Fatalf("final pending=%d, want %d", n, seq+extra)
	}
}
