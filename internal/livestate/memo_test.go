package livestate

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/trace"
)

// memoCounts reads the engine's queue-memo hit and miss counters.
func memoCounts(e *Engine) (hits, misses uint64) {
	st := e.Stats()
	return st.SnapshotHits, st.SnapshotMisses
}

// sameQueue reports whether two snapshots share one memoized extraction:
// the same Pending backing array (the identity the runtime predictor keys
// its queue columns by).
func sameQueue(a, b []trace.Job) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestQueueMemoDroppedByEveryMutation pins the memo's one rule: an
// extraction is reused until the state changes, and every kind of state
// change — an applied event, a reseed, a checkpoint restore — drops it.
// An event the engine refuses changes nothing, so the memo survives it.
func TestQueueMemoDroppedByEveryMutation(t *testing.T) {
	e := NewEngine()
	for i := 1; i <= 4; i++ {
		if err := e.ApplyEvent(submitEvent(mkJob(i, i%2, "shared", int64(100+i), 0, 0, 0))); err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyEvent(Event{Type: EventEligible, Time: int64(110 + i), JobID: i}); err != nil {
			t.Fatal(err)
		}
	}
	const at = 500
	target := mkJob(99, 1, "shared", 0, 0, 0, 0)
	first := e.SnapshotAt(target, at)
	again := e.SnapshotAt(target, at)
	if !sameQueue(first.Pending, again.Pending) || len(first.Pending) != 4 {
		t.Fatalf("repeat at one instant did not reuse the extraction (%d pending)", len(first.Pending))
	}
	if &first.History[0] != &again.History[0] {
		t.Fatal("repeat at one instant re-extracted the user's history")
	}
	if h, m := memoCounts(e); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}

	// Refused: a duplicate eligible leaves the state, and so the memo, alone.
	if err := e.ApplyEvent(Event{Type: EventEligible, Time: 200, JobID: 1}); err == nil {
		t.Fatal("duplicate eligible applied")
	}
	if s := e.SnapshotAt(target, at); !sameQueue(first.Pending, s.Pending) {
		t.Fatal("a refused event dropped the memo")
	}

	steps := []struct {
		name    string
		mutate  func()
		pending int
	}{
		{"applied event", func() {
			if err := e.ApplyEvent(Event{Type: EventStart, Time: 210, JobID: 2}); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"checkpoint restore", func() {
			d := e.snapshotDTO()
			d.Jobs = d.Jobs[1:] // job 1, pending, is not in the restored state
			e.restoreDTO(d)
		}, 2},
		{"reseed", func() {
			e.SeedFromTrace(&trace.Trace{Jobs: []trace.Job{mkJob(7, 1, "shared", 300, 310, 0, 0)}})
		}, 1},
	}
	for _, st := range steps {
		before := e.SnapshotAt(target, at)
		_, m0 := memoCounts(e)
		st.mutate()
		after := e.SnapshotAt(target, at)
		if _, m1 := memoCounts(e); m1 != m0+1 {
			t.Fatalf("%s: snapshot after it was not a memo miss", st.name)
		}
		if len(after.Pending) != st.pending || sameQueue(before.Pending, after.Pending) {
			t.Fatalf("%s: %d pending after it, want %d from a fresh extraction", st.name, len(after.Pending), st.pending)
		}
	}
}

// TestQueueMemoEvictsOldestInstant: the memo holds memoSlots instants and
// replaces the one asked about longest ago.
func TestQueueMemoEvictsOldestInstant(t *testing.T) {
	e := NewEngine()
	if err := e.ApplyEvent(submitEvent(mkJob(1, 1, "shared", 100, 0, 0, 0))); err != nil {
		t.Fatal(err)
	}
	target := mkJob(99, 1, "shared", 0, 0, 0, 0)
	for at := int64(200); at < 200+memoSlots; at++ {
		e.SnapshotAt(target, at)
	}
	e.SnapshotAt(target, 200) // refresh the oldest: 201 is now the LRU slot
	e.SnapshotAt(target, 999) // evicts 201
	_, m0 := memoCounts(e)
	e.SnapshotAt(target, 200)
	if _, m := memoCounts(e); m != m0 {
		t.Fatal("recently used instant was evicted")
	}
	e.SnapshotAt(target, 201)
	if _, m := memoCounts(e); m != m0+1 {
		t.Fatal("least recently used instant survived an eviction")
	}
}

// TestQueueMemoConsistentUnderIngest is the concurrency half of the rule
// above, under -race: readers at one instant race a writer that submits
// and then makes eligible one job of user 1 at a time. Every job a snapshot
// sees pending must be in the same snapshot's history, and the history may
// be ahead by at most the one job between its two events — a snapshot
// pairing a queue and a history from different states fails one or the
// other. Counts seen by one reader never go backwards, and once the writer
// is done a snapshot sees every job.
func TestQueueMemoConsistentUnderIngest(t *testing.T) {
	e := NewEngine()
	const jobs, at = 300, int64(2000)
	target := []trace.Job{mkJob(0, 1, "shared", 0, 0, 0, 0)}
	var wg sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				s := e.SnapshotBatch(target, at)[0]
				in := make(map[int]bool, len(s.History))
				for _, h := range s.History {
					in[h.ID] = true
				}
				for _, p := range s.Pending {
					if !in[p.ID] {
						errs <- fmt.Errorf("pending job %d missing from the snapshot's history", p.ID)
						return
					}
				}
				if n := len(s.History); n > len(s.Pending)+1 || len(s.Pending) < last {
					errs <- fmt.Errorf("history %d vs pending %d (last %d)", n, len(s.Pending), last)
					return
				}
				last = len(s.Pending)
			}
		}()
	}
	for i := 1; i <= jobs; i++ {
		_ = e.ApplyEvent(submitEvent(mkJob(i, 1, "shared", int64(1000+2*i), 0, 0, 0)))
		_ = e.ApplyEvent(Event{Type: EventEligible, Time: int64(1001 + 2*i), JobID: i})
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.SnapshotBatch(target, at)[0]; len(s.Pending) != jobs || len(s.History) != jobs {
		t.Fatalf("after ingest: %d pending, %d history, want %d", len(s.Pending), len(s.History), jobs)
	}
}

// FuzzQueueMemo drives an engine with a byte-coded stream of events (valid,
// refused and stale alike), checkpoint restores and snapshot queries at a
// few instants, so queries repeat across and between mutations. Every
// memoized snapshot must equal a fresh, memo-free extraction of the state
// at that moment: pending/running from PendingRunning and the user's
// history from UserHistoryChecked at the same version.
func FuzzQueueMemo(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 7, 1, 1, 3, 5, 0, 9, 5, 1, 2, 2, 1, 4, 5, 0, 0, 3, 1, 8, 5, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 1, 2, 5, 0, 5, 0, 6, 0, 5, 0, 2, 1, 5, 3, 4, 2, 5, 1, 3, 3, 5, 2})
	f.Add([]byte{0, 4, 1, 4, 5, 1, 7, 0, 5, 1, 0, 4, 5, 1, 2, 4, 5, 1, 4, 4, 6, 0, 5, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine()
		clock := int64(1000)
		instants := func(b byte) int64 { return 1000 + 40*int64(b%4) }
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%7, ops[k+1]
			id := int(arg%8) + 1
			switch op {
			case 0:
				clock += int64(arg % 16)
				j := mkJob(id, id%3, []string{"a", "b"}[id%2], clock, 0, 0, 0)
				_ = e.ApplyEvent(submitEvent(j))
			case 1, 2, 3, 4:
				clock += int64(arg % 16)
				ty := []EventType{EventEligible, EventStart, EventEnd, EventCancel}[op-1]
				_ = e.ApplyEvent(Event{Type: ty, Time: clock - int64(arg%3)*20, JobID: id})
			case 5:
				at := instants(arg)
				users := []int{id % 3, (id + 1) % 3, id % 3}
				targets := make([]trace.Job, len(users))
				for i, u := range users {
					targets[i] = mkJob(100+i, u, "a", 0, 0, 0, 0)
				}
				snaps := e.SnapshotBatch(targets, at)
				pending, running, ver := e.PendingRunning(at)
				for i, s := range snaps {
					hist, ok := e.UserHistoryChecked(users[i], at, ver)
					if !ok {
						t.Fatal("engine moved with no writer")
					}
					if !reflect.DeepEqual(s.Pending, pending) || !reflect.DeepEqual(s.Running, running) ||
						!reflect.DeepEqual(s.History, hist) || s.Now != at || s.Target != targets[i] {
						t.Fatalf("op %d: memoized snapshot at %d differs from a fresh extraction", k/2, at)
					}
				}
			case 6:
				e.restoreDTO(e.snapshotDTO())
			}
		}
	})
}
