package main

import (
	"testing"

	trout "repro"
	"repro/internal/trace"
)

// TestHypotheticalSnapshotOpenIntervals pins -at mode on a live trace: a
// job with Start == 0 is still queued and one with End == 0 still running.
// The private scan this command used to carry (`at < j.Start`) dropped
// both, so the hypothetical job saw an empty queue and kept priority 0.
func TestHypotheticalSnapshotOpenIntervals(t *testing.T) {
	mk := func(id int, prio, eligible, start, end int64) trace.Job {
		return trace.Job{
			ID: id, User: 1, Partition: "shared", Submit: 100, Eligible: eligible,
			Start: start, End: end, ReqCPUs: 4, ReqMemGB: 8, ReqNodes: 1,
			TimeLimit: 3600, Priority: prio,
		}
	}
	tr := &trout.Trace{Jobs: []trace.Job{
		mk(1, 900, 110, 0, 0),     // pending, never started
		mk(2, 700, 110, 0, 0),     // pending, never started
		mk(3, 500, 110, 400, 0),   // was pending at 300, still running at 500
		mk(4, 100, 110, 120, 0),   // running, never ended
		mk(5, 100, 110, 120, 130), // finished
	}}
	target := trace.Job{ID: -1, User: 2, Partition: "shared", Submit: 300, Eligible: 300,
		ReqCPUs: 1, ReqMemGB: 1, ReqNodes: 1, TimeLimit: 600}

	snap := hypotheticalSnapshot(tr, 300, target)
	if len(snap.Pending) != 3 || len(snap.Running) != 1 {
		t.Fatalf("at 300: %d pending, %d running, want 3 and 1", len(snap.Pending), len(snap.Running))
	}
	if snap.Target.Priority != 700 {
		t.Fatalf("defaulted priority %d, want the pending median 700", snap.Target.Priority)
	}

	target.Priority = 42
	snap = hypotheticalSnapshot(tr, 500, target)
	if len(snap.Pending) != 2 || len(snap.Running) != 2 || snap.Target.Priority != 42 {
		t.Fatalf("at 500: %d pending, %d running, priority %d, want 2, 2 and the job's own 42",
			len(snap.Pending), len(snap.Running), snap.Target.Priority)
	}
}
