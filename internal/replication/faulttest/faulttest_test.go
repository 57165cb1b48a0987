package faulttest

import (
	"context"

	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/livestate"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/trace"
)

func mkJob(id, user int, part string, submit int64) trace.Job {
	return trace.Job{
		ID: id, User: user, Partition: part, State: trace.StateCompleted,
		Submit: submit, ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1, TimeLimit: 3600, Priority: 1000,
	}
}

// feed applies a submit+eligible pair per job and commits them with one
// Sync, as /events does per body.
func feed(t *testing.T, s *livestate.Store, firstID, n int) {
	t.Helper()
	for i := firstID; i < firstID+n; i++ {
		j := mkJob(i, i%3, "shared", int64(1000+10*i))
		if err := s.Apply(livestate.Event{Type: livestate.EventSubmit, Time: j.Submit, Job: &j}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := s.Apply(livestate.Event{Type: livestate.EventEligible, Time: int64(1001 + 10*i), JobID: i}); err != nil {
			t.Fatalf("eligible %d: %v", i, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

var fastRetry = resilience.Policy{InitialInterval: 5 * time.Millisecond, MaxInterval: 50 * time.Millisecond}

func startFollower(t *testing.T, url string, client *http.Client) (*replication.Follower, *livestate.Store) {
	t.Helper()
	fs, err := livestate.OpenStore(livestate.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	f, err := replication.NewFollower(replication.FollowerConfig{
		LeaderURL: url, Store: fs, Client: client,
		Retry: fastRetry, PollWait: 50 * time.Millisecond,
	})
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
	return f, fs
}

func waitConverged(t *testing.T, what string, leader func() *livestate.Store, follower *livestate.Store) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		lm, fm := leader().Metrics(), follower.Metrics()
		if fm.LSN == lm.LSN && fm.Gen == lm.Gen {
			if lf, ff := leader().Engine().Fingerprint(), follower.Engine().Fingerprint(); lf == ff {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	lm, fm := leader().Metrics(), follower.Metrics()
	t.Fatalf("timed out waiting for %s: leader lsn=%d gen=%d, follower lsn=%d gen=%d",
		what, lm.LSN, lm.Gen, fm.LSN, fm.Gen)
}

// TestCrashRestartSmoke is the CI fault smoke: a leader is crash-killed
// mid-stream (no Close, no sync, connections dropped), a torn half-record
// is left on its WAL, and it restarts — the follower rides through the
// outage on retry/backoff and converges to the recovered leader with no
// acknowledged event lost.
func TestCrashRestartSmoke(t *testing.T) {
	h := NewHarness(t, livestate.StoreOptions{SegmentBytes: 4096})
	_, fs := startFollower(t, h.URL(), nil)

	feed(t, h.Store(), 1, 25)
	if err := h.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "pre-crash catch-up", h.Store, fs)

	durableAtKill := h.Kill()

	// The crash tore a record mid-write: append a plausible-looking frame
	// prefix with no payload behind it.
	wal := filepath.Join(h.dir, "events.wal")
	fd, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Write([]byte{0x80, 0x01, '{', '"', 't'}); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	// While the leader is down, the URL must refuse abruptly, not hang.
	resp, err := http.Get(h.URL() + "/replication/status")
	if err == nil {
		resp.Body.Close()
		t.Fatal("killed leader still answered")
	}

	h.Restart()
	if got := h.Store().Metrics().LSN; got < durableAtKill {
		t.Fatalf("acked events lost: recovered LSN %d < durable-at-kill %d", got, durableAtKill)
	}

	feed(t, h.Store(), 500, 10) // the restarted leader keeps accepting writes
	if err := h.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "post-restart convergence", h.Store, fs)
}

// TestTornSegmentForcesResnapshot truncates the leader's WAL mid-record
// such that already-shipped records vanish: the recovered leader is behind
// the follower, which must detect divergence (409) and heal by
// re-snapshotting down to the leader's truth.
func TestTornSegmentForcesResnapshot(t *testing.T) {
	h := NewHarness(t, livestate.StoreOptions{})
	f, fs := startFollower(t, h.URL(), nil)

	feed(t, h.Store(), 1, 20)
	waitConverged(t, "pre-crash catch-up", h.Store, fs)

	h.Kill()
	h.TearActiveWAL(10) // cuts into shipped bytes: leader rewinds past the follower
	h.Restart()

	if lm, fm := h.Store().Metrics(), fs.Metrics(); lm.LSN >= fm.LSN {
		t.Fatalf("precondition: truncation did not rewind the leader (leader %d, follower %d)", lm.LSN, fm.LSN)
	}
	waitConverged(t, "post-truncation healing", h.Store, fs)
	if f.Stats().Resnapshots == 0 {
		t.Fatal("diverged follower must heal via re-snapshot")
	}
}

// TestFollowerConvergesOverFaultyNetwork drives replication through a
// transport that injects hard errors, timeouts, slow reads, and mid-body
// failures, and requires exact convergence anyway.
func TestFollowerConvergesOverFaultyNetwork(t *testing.T) {
	h := NewHarness(t, livestate.StoreOptions{SegmentBytes: 2048})
	ft := &FlakyTransport{
		FailEveryN:     3,
		TimeoutEveryN:  7,
		HangFor:        10 * time.Millisecond,
		SlowEveryN:     5,
		SlowBy:         5 * time.Millisecond,
		BodyFailEveryN: 4,
		BodyFailAfter:  32,
	}
	f, fs := startFollower(t, h.URL(), &http.Client{Transport: ft})

	for batch := 0; batch < 5; batch++ {
		feed(t, h.Store(), 1+batch*100, 15)
		time.Sleep(10 * time.Millisecond) // interleave faults with tailing
	}
	waitConverged(t, "convergence over faulty network", h.Store, fs)
	if ft.Injected() == 0 {
		t.Fatal("fault schedule injected nothing; test proved the happy path only")
	}
	if f.Stats().FetchErrors == 0 {
		t.Fatal("follower never observed an injected fault")
	}
}

// TestKillDuringLongPoll crashes the leader while a follower long-poll is
// parked on the updated channel; the follower must notice the dead
// connection, back off, and resume after restart.
func TestKillDuringLongPoll(t *testing.T) {
	h := NewHarness(t, livestate.StoreOptions{})
	_, fs := startFollower(t, h.URL(), nil)
	feed(t, h.Store(), 1, 5)
	waitConverged(t, "catch-up", h.Store, fs)

	// The follower is now parked in a long-poll with nothing to ship.
	time.Sleep(20 * time.Millisecond)
	h.Kill()
	time.Sleep(30 * time.Millisecond) // let the poll die and retries begin
	h.Restart()
	feed(t, h.Store(), 100, 5)
	if err := h.Store().Sync(); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "resume after kill during long-poll", h.Store, fs)
}

// TestHarnessStatusRoundTrip sanity-checks the harness serving path itself
// so fault tests fail for replication reasons, not harness bugs.
func TestHarnessStatusRoundTrip(t *testing.T) {
	h := NewHarness(t, livestate.StoreOptions{})
	feed(t, h.Store(), 1, 2)
	resp, err := http.Get(h.URL() + "/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: %d", resp.StatusCode)
	}
	if resp.Header.Get(replication.HeaderLeaderLSN) == "" {
		t.Fatal("missing leader LSN header")
	}
}
