package livestate

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

func submitEvent(j trace.Job) Event {
	sub := j
	sub.Eligible, sub.Start, sub.End = 0, 0, 0
	sub.State = ""
	return Event{Type: EventSubmit, Time: j.Submit, Job: &sub}
}

func TestEngineLifecycle(t *testing.T) {
	e := NewEngine()
	j := mkJob(1, 7, "shared", 100, 0, 0, 0)
	if err := e.ApplyEvent(submitEvent(j)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Submitted != 1 || st.Pending != 0 {
		t.Fatalf("after submit: %+v", st)
	}
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: 110, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Pending != 1 || st.Partitions["shared"].Pending != 1 {
		t.Fatalf("after eligible: %+v", st)
	}
	if err := e.ApplyEvent(Event{Type: EventStart, Time: 150, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Running != 1 || st.Pending != 0 {
		t.Fatalf("after start: %+v", st)
	}
	if want := int64(150 + 3600); st.NextExpectedEnd != want {
		t.Fatalf("next expected end %d, want %d", st.NextExpectedEnd, want)
	}
	if err := e.ApplyEvent(Event{Type: EventEnd, Time: 500, JobID: 1, State: trace.StateFailed}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Running != 0 || st.Pending != 0 || st.NextExpectedEnd != 0 {
		t.Fatalf("after end: %+v", st)
	}
	if st.Now != 500 {
		t.Fatalf("now %d", st.Now)
	}
}

// TestEngineReadyWindow pins which instants the engine answers for: any
// instant on an empty engine (the queue really is empty), and on a running
// one anything from an hour behind its clock onward.
func TestEngineReadyWindow(t *testing.T) {
	e := NewEngine()
	if now, ok := e.Ready(12345); !ok || now != 0 {
		t.Fatalf("empty engine: Ready = %d, %v, want 0, true", now, ok)
	}
	if err := e.ApplyEvent(submitEvent(mkJob(1, 7, "shared", 10000, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	for at, want := range map[int64]bool{20000: true, 10000: true, 6400: true, 6399: false, 1: false} {
		if now, ok := e.Ready(at); ok != want || now != 10000 {
			t.Errorf("Ready(%d) = %d, %v, want 10000, %v", at, now, ok, want)
		}
	}
}

func TestEngineRejectsBadOrdering(t *testing.T) {
	e := NewEngine()
	j := mkJob(1, 7, "shared", 100, 0, 0, 0)
	if err := e.ApplyEvent(Event{Type: EventStart, Time: 100, JobID: 99}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("start for unknown job: %v", err)
	}
	if err := e.ApplyEvent(submitEvent(j)); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(submitEvent(j)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate submit: %v", err)
	}
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: 110, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: 111, JobID: 1}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate eligible: %v", err)
	}
	if err := e.ApplyEvent(Event{Type: EventCancel, Time: 120, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventStart, Time: 130, JobID: 1}); !errors.Is(err, ErrStale) {
		t.Fatalf("start after cancel: %v", err)
	}
	if st := e.Stats(); st.ApplyErrors != 4 || st.Pending != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEngineStartWithoutEligible checks the lenient path: a stream that
// skipped the eligible event still gets a sane pending->running life.
func TestEngineStartWithoutEligible(t *testing.T) {
	e := NewEngine()
	if err := e.ApplyEvent(submitEvent(mkJob(5, 2, "gpu", 100, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventStart, Time: 140, JobID: 5}); err != nil {
		t.Fatal(err)
	}
	snap := e.SnapshotAt(mkJob(9, 2, "gpu", 0, 0, 0, 0), 150)
	if len(snap.Running) != 1 || snap.Running[0].Eligible != 140 {
		t.Fatalf("running = %+v", snap.Running)
	}
}

func TestSnapshotForJob(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 3; i++ {
		j := mkJob(i, 7, "shared", 100, 0, 0, 0)
		if err := e.ApplyEvent(submitEvent(j)); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyEvent(Event{Type: EventEligible, Time: int64(100 + i), JobID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ApplyEvent(Event{Type: EventStart, Time: 200, JobID: 1}); err != nil {
		t.Fatal(err)
	}
	snap, err := e.SnapshotForJob(2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Target.ID != 2 || snap.Now != 200 {
		t.Fatalf("snapshot target %d now %d", snap.Target.ID, snap.Now)
	}
	if len(snap.Pending) != 2 || len(snap.Running) != 1 {
		t.Fatalf("pending %d running %d", len(snap.Pending), len(snap.Running))
	}
	// History holds the target user's submissions strictly before Now.
	if len(snap.History) != 3 {
		t.Fatalf("history %d", len(snap.History))
	}
	if _, err := e.SnapshotForJob(1); err == nil {
		t.Fatal("running job should not be live-snapshottable")
	}
	if _, err := e.SnapshotForJob(42); err == nil {
		t.Fatal("unknown job should error")
	}
}

func TestEnginePrunesAgedHistory(t *testing.T) {
	e := NewEngine()
	base := int64(1_000_000)
	// Completed job far in the past...
	for i, ev := range []Event{
		submitEvent(mkJob(1, 7, "shared", base, 0, 0, 0)),
		{Type: EventEligible, Time: base, JobID: 1},
		{Type: EventStart, Time: base + 10, JobID: 1},
		{Type: EventEnd, Time: base + 20, JobID: 1},
	} {
		if err := e.ApplyEvent(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	// ...and an ancient job still pending (must survive pruning).
	if err := e.ApplyEvent(submitEvent(mkJob(2, 7, "shared", base+30, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: base + 31, JobID: 2}); err != nil {
		t.Fatal(err)
	}
	// Advance the clock two days via a fresh submission.
	far := base + 2*86400
	if err := e.ApplyEvent(submitEvent(mkJob(3, 8, "shared", far, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.HistoryEntries != 1 {
		t.Fatalf("history entries %d, want 1 (aged submissions pruned)", st.HistoryEntries)
	}
	if st.Tracked != 2 {
		t.Fatalf("tracked %d, want 2 (done job pruned, old pending job kept)", st.Tracked)
	}
	if st.Pending != 1 {
		t.Fatalf("pending %d", st.Pending)
	}
	snap := e.SnapshotAt(mkJob(9, 7, "shared", 0, 0, 0, 0), far)
	if len(snap.History) != 0 {
		t.Fatalf("user 7 history should have aged out, got %d rows", len(snap.History))
	}
}

func TestSeedFromTraceClassification(t *testing.T) {
	base := int64(1_000_000)
	tr := &trace.Trace{Jobs: []trace.Job{
		mkJob(1, 7, "shared", base, base+10, 0, 0),                                    // pending (open start)
		mkJob(2, 7, "shared", base, base+10, base+20, 0),                              // running (open end)
		mkJob(3, 7, "shared", base, base+5, base+6, base+100),                         // done, recent -> history
		mkJob(4, 8, "gpu", base-3*86400, base-3*86400, base-3*86400, base-3*86400+60), // done, ancient -> dropped
		mkJob(5, 8, "gpu", base, 0, 0, 0),                                             // submitted only
	}}
	e := NewEngine()
	rep := e.SeedFromTrace(tr)
	if rep.Active != 3 || rep.History != 1 || rep.Dropped != 1 {
		t.Fatalf("seed report %+v", rep)
	}
	if rep.Now != base+100 {
		t.Fatalf("seed now %d", rep.Now)
	}
	st := e.Stats()
	if st.Pending != 1 || st.Running != 1 || st.Submitted != 1 {
		t.Fatalf("stats %+v", st)
	}
	snap := e.SnapshotAt(mkJob(9, 7, "shared", 0, 0, 0, 0), rep.Now)
	if len(snap.Pending) != 1 || snap.Pending[0].ID != 1 {
		t.Fatalf("pending %+v", snap.Pending)
	}
	if len(snap.Running) != 1 || snap.Running[0].ID != 2 {
		t.Fatalf("running %+v", snap.Running)
	}
	if len(snap.History) != 3 { // user 7: jobs 1, 2, 3 submitted within the day
		t.Fatalf("history %+v", snap.History)
	}
}

func TestSnapshotEmissionSortedByID(t *testing.T) {
	e := NewEngine()
	// Insert in shuffled ID order.
	for _, id := range []int{5, 1, 9, 3, 7} {
		j := mkJob(id, 7, "shared", 100+int64(id), 0, 0, 0)
		if err := e.ApplyEvent(submitEvent(j)); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyEvent(Event{Type: EventEligible, Time: 200 - int64(id), JobID: id}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.SnapshotAt(mkJob(99, 7, "shared", 0, 0, 0, 0), 500)
	for i := 1; i < len(snap.Pending); i++ {
		if snap.Pending[i].ID <= snap.Pending[i-1].ID {
			t.Fatalf("pending not ID-sorted: %v", snap.Pending)
		}
	}
	for i := 1; i < len(snap.History); i++ {
		if snap.History[i].ID <= snap.History[i-1].ID {
			t.Fatalf("history not ID-sorted: %v", snap.History)
		}
	}
}

func TestEndHeapIndexedRemoval(t *testing.T) {
	var h endHeap
	h.push(1, 300)
	h.push(2, 100)
	h.push(3, 200)
	if id, end, ok := h.peek(); !ok || id != 2 || end != 100 {
		t.Fatalf("peek %d %d %v", id, end, ok)
	}
	if !h.remove(2) {
		t.Fatal("remove 2")
	}
	if id, end, _ := h.peek(); id != 3 || end != 200 {
		t.Fatalf("peek after remove %d %d", id, end)
	}
	if h.remove(2) {
		t.Fatal("double remove should report false")
	}
	h.push(3, 50) // re-push updates the key
	if id, end, _ := h.peek(); id != 3 || end != 50 {
		t.Fatalf("peek after update %d %d", id, end)
	}
}

// TestEngineConcurrentApplyAndSnapshot exercises the locking under -race.
func TestEngineConcurrentApplyAndSnapshot(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 300; i++ {
			j := mkJob(i, i%5, "shared", int64(1000+i), 0, 0, 0)
			_ = e.ApplyEvent(submitEvent(j))
			_ = e.ApplyEvent(Event{Type: EventEligible, Time: int64(1001 + i), JobID: i})
			if i%3 == 0 {
				_ = e.ApplyEvent(Event{Type: EventStart, Time: int64(1002 + i), JobID: i})
			}
			if i%9 == 0 {
				_ = e.ApplyEvent(Event{Type: EventEnd, Time: int64(1003 + i), JobID: i})
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := e.SnapshotAt(mkJob(9999, w, "shared", 0, 0, 0, 0), int64(1000+i))
				_ = snap
				_ = e.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := e.Stats(); st.Tracked == 0 {
		t.Fatal("nothing tracked")
	}
}

func TestStatsEventsCounting(t *testing.T) {
	e := NewEngine()
	j := mkJob(1, 7, "shared", 100, 0, 0, 0)
	_ = e.ApplyEvent(submitEvent(j))
	_ = e.ApplyEvent(Event{Type: EventEligible, Time: 110, JobID: 1})
	_ = e.ApplyEvent(Event{Type: EventEligible, Time: 111, JobID: 1}) // rejected
	st := e.Stats()
	if st.Events["submit"] != 1 || st.Events["eligible"] != 1 || st.ApplyErrors != 1 {
		t.Fatalf("events %v errs %d", st.Events, st.ApplyErrors)
	}
}

func TestDTORoundtrip(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 40; i++ {
		j := mkJob(i, i%4, fmt.Sprintf("p%d", i%3), int64(1000+i), 0, 0, 0)
		if err := e.ApplyEvent(submitEvent(j)); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyEvent(Event{Type: EventEligible, Time: int64(1100 + i), JobID: i}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := e.ApplyEvent(Event{Type: EventStart, Time: int64(1200 + i), JobID: i}); err != nil {
				t.Fatal(err)
			}
		}
		if i%8 == 0 {
			if err := e.ApplyEvent(Event{Type: EventEnd, Time: int64(1300 + i), JobID: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e2 := NewEngine()
	e2.restoreDTO(e.snapshotDTO())
	assertEnginesEqual(t, e, e2)
}

// TestDTORoundtripStaleStream is the crash-recovery fidelity regression: a
// stream whose timestamps trail the engine clock (replaying an old event
// file into an engine seeded at a later instant) must checkpoint/restore
// to identical state. Restore used to recompute ring membership by cutoff
// while live applies added every submission, so HistoryEntries diverged
// after a restart.
func TestDTORoundtripStaleStream(t *testing.T) {
	e := NewEngine()
	const now = int64(10_000_000)
	// Pin the clock with a fresh submission at now.
	if err := e.ApplyEvent(submitEvent(mkJob(1, 1, "shared", now, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	// Stale but in-window: belongs in the history ring.
	if err := e.ApplyEvent(submitEvent(mkJob(2, 2, "shared", now-1000, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	// Stale and already outside the retention window: tracked, but kept out
	// of the ring — no served 24 h window can ever include it.
	if err := e.ApplyEvent(submitEvent(mkJob(3, 3, "shared", now-historyRetention-50, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Tracked != 3 {
		t.Fatalf("tracked %d, want 3", st.Tracked)
	}
	if st.HistoryEntries != 2 {
		t.Fatalf("history entries %d, want 2 (expired submission must stay out of the ring)",
			st.HistoryEntries)
	}
	e2 := NewEngine()
	e2.restoreDTO(e.snapshotDTO())
	assertEnginesEqual(t, e, e2)
}

// TestStaleTerminalJobDropped: a job whose submission already aged out of
// the retention window has no ring entry, so pruning can never delete it;
// its terminal event must drop it directly instead of leaking it.
func TestStaleTerminalJobDropped(t *testing.T) {
	e := NewEngine()
	const now = int64(10_000_000)
	if err := e.ApplyEvent(submitEvent(mkJob(1, 1, "shared", now, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	old := now - historyRetention - 100
	if err := e.ApplyEvent(submitEvent(mkJob(9, 2, "shared", old, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: old + 10, JobID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyEvent(Event{Type: EventStart, Time: old + 20, JobID: 9}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Tracked != 2 || st.Running != 1 {
		t.Fatalf("while active: %+v", st)
	}
	if err := e.ApplyEvent(Event{Type: EventEnd, Time: old + 30, JobID: 9}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Tracked != 1 || st.Running != 0 {
		t.Fatalf("stale terminal job leaked: %+v", st)
	}
	e2 := NewEngine()
	e2.restoreDTO(e.snapshotDTO())
	assertEnginesEqual(t, e, e2)
}

// assertEnginesEqual compares two engines through their public surface:
// stats and snapshots for every tracked user/partition.
func assertEnginesEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.Now != sb.Now || sa.Tracked != sb.Tracked || sa.Pending != sb.Pending ||
		sa.Running != sb.Running || sa.Submitted != sb.Submitted ||
		sa.HistoryEntries != sb.HistoryEntries || sa.NextExpectedEnd != sb.NextExpectedEnd {
		t.Fatalf("stats diverge:\n%+v\n%+v", sa, sb)
	}
	for u := 0; u < 8; u++ {
		target := mkJob(999999, u, "p0", 0, 0, 0, 0)
		snapA := a.SnapshotAt(target, sa.Now)
		snapB := b.SnapshotAt(target, sb.Now)
		if len(snapA.Pending) != len(snapB.Pending) || len(snapA.Running) != len(snapB.Running) ||
			len(snapA.History) != len(snapB.History) {
			t.Fatalf("user %d snapshot sizes diverge", u)
		}
		for i := range snapA.Pending {
			if snapA.Pending[i] != snapB.Pending[i] {
				t.Fatalf("pending[%d] diverges: %+v vs %+v", i, snapA.Pending[i], snapB.Pending[i])
			}
		}
		for i := range snapA.Running {
			if snapA.Running[i] != snapB.Running[i] {
				t.Fatalf("running[%d] diverges", i)
			}
		}
		for i := range snapA.History {
			if snapA.History[i] != snapB.History[i] {
				t.Fatalf("history[%d] diverges", i)
			}
		}
	}
}
