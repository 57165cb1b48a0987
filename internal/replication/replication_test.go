package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/livestate"
	"repro/internal/resilience"
	"repro/internal/trace"
)

func mkJob(id, user int, part string, submit int64) trace.Job {
	return trace.Job{
		ID: id, User: user, Partition: part, State: trace.StateCompleted,
		Submit: submit, ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 3600, Priority: 1000,
	}
}

// feed applies a submit+eligible pair per job, plus starts for even IDs.
func feed(t *testing.T, s *livestate.Store, firstID, n int) {
	t.Helper()
	for i := firstID; i < firstID+n; i++ {
		j := mkJob(i, i%3, "shared", int64(1000+10*i))
		ev := livestate.Event{Type: livestate.EventSubmit, Time: j.Submit, Job: &j}
		if err := s.Apply(ev); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := s.Apply(livestate.Event{Type: livestate.EventEligible, Time: int64(1001 + 10*i), JobID: i}); err != nil {
			t.Fatalf("eligible %d: %v", i, err)
		}
		if i%2 == 0 {
			if err := s.Apply(livestate.Event{Type: livestate.EventStart, Time: int64(1005 + 10*i), JobID: i}); err != nil {
				t.Fatalf("start %d: %v", i, err)
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// fastRetry keeps test reconnects snappy.
var fastRetry = resilience.Policy{InitialInterval: 5 * time.Millisecond, MaxInterval: 50 * time.Millisecond}

func newLeaderServer(t *testing.T, s *livestate.Store) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	NewLeader(s).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func startFollower(t *testing.T, cfg FollowerConfig) (*Follower, context.CancelFunc) {
	t.Helper()
	if cfg.Retry.InitialInterval == 0 {
		cfg.Retry = fastRetry
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 200 * time.Millisecond
	}
	f, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("follower did not stop")
		}
	})
	return f, cancel
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func converged(leader, follower *livestate.Store) bool {
	lm, fm := leader.Metrics(), follower.Metrics()
	return fm.LSN == lm.LSN && fm.Gen == lm.Gen
}

func requireSameState(t *testing.T, leader, follower *livestate.Store) {
	t.Helper()
	if lf, ff := leader.Engine().Fingerprint(), follower.Engine().Fingerprint(); lf != ff {
		t.Fatalf("engines diverged: leader %x follower %x", lf, ff)
	}
}

func TestFollowerCatchUpAndLiveTail(t *testing.T) {
	ls, err := livestate.OpenStore(livestate.StoreOptions{Dir: t.TempDir(), SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	feed(t, ls, 1, 40)

	srv := newLeaderServer(t, ls)
	fs, err := livestate.OpenStore(livestate.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, _ := startFollower(t, FollowerConfig{LeaderURL: srv.URL, Store: fs})

	// Historical catch-up across sealed segments.
	waitUntil(t, "initial catch-up", func() bool { return converged(ls, fs) && f.Stats().CaughtUp })
	requireSameState(t, ls, fs)
	st := f.Stats()
	if !st.CaughtUp || st.LagEvents != 0 {
		t.Fatalf("stats after catch-up: %+v", st)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("healthy follower reports %v", err)
	}

	// Live tail: new leader writes arrive via the long-poll without restart.
	feed(t, ls, 100, 10)
	waitUntil(t, "live tail", func() bool { return converged(ls, fs) })
	requireSameState(t, ls, fs)
	if f.Stats().Resnapshots != 0 {
		t.Fatalf("clean tail should not re-snapshot: %+v", f.Stats())
	}
}

func TestFollowerResnapshotsWhenBehindRetention(t *testing.T) {
	ls, err := livestate.OpenStore(livestate.StoreOptions{
		Dir: t.TempDir(), SegmentBytes: 1024, RetainSegments: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	feed(t, ls, 1, 60)
	if err := ls.Checkpoint(); err != nil { // prunes history beyond retention
		t.Fatal(err)
	}
	if ls.OldestLSN() <= 1 {
		t.Fatalf("precondition: history not pruned (oldest %d)", ls.OldestLSN())
	}

	srv := newLeaderServer(t, ls)
	fs, err := livestate.OpenStore(livestate.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, _ := startFollower(t, FollowerConfig{LeaderURL: srv.URL, Store: fs})

	waitUntil(t, "snapshot-based catch-up", func() bool { return converged(ls, fs) })
	requireSameState(t, ls, fs)
	if f.Stats().Resnapshots == 0 {
		t.Fatal("follower behind retention must re-snapshot")
	}

	// And it keeps tailing from the restored position.
	feed(t, ls, 200, 5)
	waitUntil(t, "tail after snapshot", func() bool { return converged(ls, fs) })
	requireSameState(t, ls, fs)
}

func TestFollowerResnapshotsOnGenChange(t *testing.T) {
	ls, err := livestate.OpenStore(livestate.StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	feed(t, ls, 1, 10)

	srv := newLeaderServer(t, ls)
	fs, err := livestate.OpenStore(livestate.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, _ := startFollower(t, FollowerConfig{LeaderURL: srv.URL, Store: fs})
	waitUntil(t, "catch-up", func() bool { return converged(ls, fs) })

	// Replace the leader's world outside the WAL stream (POST /state path).
	tr := &trace.Trace{Jobs: []trace.Job{mkJob(900, 1, "gpu", 5000), mkJob(901, 2, "gpu", 5010)}}
	if _, err := ls.Seed(tr); err != nil {
		t.Fatal(err)
	}
	feed(t, ls, 950, 3) // keep writing on the new generation

	waitUntil(t, "gen-change re-snapshot", func() bool { return converged(ls, fs) })
	requireSameState(t, ls, fs)
	if f.Stats().Resnapshots == 0 {
		t.Fatal("generation change must force a re-snapshot")
	}
}

func TestLeaderLongPollAndStatus(t *testing.T) {
	ls, err := livestate.OpenStore(livestate.StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	feed(t, ls, 1, 3)
	srv := newLeaderServer(t, ls)

	// At-head long-poll with a short window returns 204 + position headers.
	lsn := ls.DurableLSN()
	resp, err := http.Get(fmt.Sprintf("%s/replication/wal?from=%d&wait=50ms", srv.URL, lsn))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("at-head poll: %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderLeaderLSN) == "" || resp.Header.Get(HeaderStateGen) == "" {
		t.Fatal("204 missing position headers")
	}

	// A follower claiming a future position gets 409.
	resp, err = http.Get(fmt.Sprintf("%s/replication/wal?from=%d", srv.URL, lsn+100))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ahead-of-leader fetch: %d, want 409", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
}

func TestFollowerNotReadyBeforeFirstContact(t *testing.T) {
	fs, err := livestate.OpenStore(livestate.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := NewFollower(FollowerConfig{LeaderURL: "http://127.0.0.1:1", Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); err == nil {
		t.Fatal("follower with no leader contact must not be ready")
	}
}

// TestReplicationRace runs one leader and two followers with concurrent
// ingest, a mid-run state swap (Seed), and concurrent metric reads — the
// -race exercise ISSUE 6 asks for. Both replicas must converge to the
// leader's exact engine state.
func TestReplicationRace(t *testing.T) {
	ls, err := livestate.OpenStore(livestate.StoreOptions{Dir: t.TempDir(), SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	srv := newLeaderServer(t, ls)

	var followers []*livestate.Store
	for i := 0; i < 2; i++ {
		fs, err := livestate.OpenStore(livestate.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		startFollower(t, FollowerConfig{LeaderURL: srv.URL, Store: fs, PollWait: 50 * time.Millisecond})
		followers = append(followers, fs)
	}

	const writers, perWriter = 3, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := 1 + w*1000 + i
				j := mkJob(id, w, "shared", int64(1000+id))
				// Engine rejections are expected around the mid-run Seed
				// (events for pre-swap jobs); the WAL still records them
				// identically on every node, which is what convergence needs.
				_ = ls.Apply(livestate.Event{Type: livestate.EventSubmit, Time: j.Submit, Job: &j})
				_ = ls.Apply(livestate.Event{Type: livestate.EventEligible, Time: j.Submit + 1, JobID: id})
				if i%4 == 3 { // commit as /events does per body, so followers tail mid-run
					if err := ls.Sync(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	// Concurrent readers: metrics + snapshots while ingest runs.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = ls.Metrics()
				_, _ = ls.WriteSnapshot(io.Discard)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// Mid-run state swap.
	time.Sleep(20 * time.Millisecond)
	tr := &trace.Trace{Jobs: []trace.Job{mkJob(9000, 5, "gpu", 9000)}}
	if _, err := ls.Seed(tr); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if err := ls.Sync(); err != nil {
		t.Fatal(err)
	}

	for i, fs := range followers {
		fs := fs
		waitUntil(t, fmt.Sprintf("follower %d convergence", i), func() bool { return converged(ls, fs) })
		requireSameState(t, ls, fs)
	}
}
