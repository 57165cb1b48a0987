package controlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeDrift is a mutable online-stats source standing in for the serving
// accuracy tracker.
type fakeDrift struct {
	mu sync.Mutex
	st obs.OnlineStats
}

func (f *fakeDrift) get() obs.OnlineStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *fakeDrift) set(st obs.OnlineStats) {
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
}

// Holdout scores for synthetic candidates: good calls the 20-minute waits
// right, bad calls them all quick-start.
var (
	good = Eval{MAEMinutes: 2, HitRate: 0.95, LongJobs: 40}
	bad  = Eval{MAEMinutes: 20, HitRate: 0.10, LongJobs: 40}
)

// ctlHarness bundles a controller with the callbacks' recorded effects.
type ctlHarness struct {
	ctl      *Controller
	reg      *Registry
	drift    *fakeDrift
	mu       sync.Mutex
	promoted []int
	rolled   int
}

func (h *ctlHarness) promotions() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.promoted...)
}

func (h *ctlHarness) rollbacks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rolled
}

// newCtlHarness builds a fast-ticking controller whose trainer emits a
// candidate scoring cand on its holdout, where the incumbent scores inc.
// opts mutates the defaults.
func newCtlHarness(t *testing.T, cand, inc Eval, opts func(*Options)) *ctlHarness {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	h := &ctlHarness{reg: reg, drift: &fakeDrift{}}
	n := 0
	o := Options{
		Registry: reg,
		Train: func(context.Context) (*Candidate, error) {
			n++
			return &Candidate{
				Blob:      []byte(fmt.Sprintf("candidate-blob-%d", n)),
				Eval:      cand,
				Incumbent: inc,
				Holdout:   "100 jobs eligible 1000..7000",
				Samples:   100,
				Watermark: 12345,
			}, nil
		},
		Drift: h.drift.get,
		Promote: func(m Manifest, _ []byte) error {
			h.mu.Lock()
			h.promoted = append(h.promoted, m.Version)
			h.mu.Unlock()
			return nil
		},
		Rollback: func() error {
			h.mu.Lock()
			h.rolled++
			h.mu.Unlock()
			return nil
		},
		IncumbentID:    func() string { return "" },
		CheckInterval:  2 * time.Millisecond,
		MinWindow:      4,
		RollbackFactor: -1, // probation off unless a test opts in
	}
	if opts != nil {
		opts(&o)
	}
	ctl, err := NewController(o)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	return h
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, ctl *Controller, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held; status %+v", ctl.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestControllerPromotesBetterCandidate(t *testing.T) {
	h := newCtlHarness(t, good, bad, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = h.ctl.Run(ctx) }()

	// Drift past the threshold with a full window: the tick should trigger
	// a retrain on its own, and the holdout decides with no traffic.
	h.drift.set(obs.OnlineStats{Window: 10, CalibrationDrift: -0.6})
	waitFor(t, h.ctl, func() bool { return h.ctl.Status().LastVerdict == VerdictPromoted })

	if got := h.promotions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("promotions = %v", got)
	}
	if h.reg.ActiveVersion() != 1 {
		t.Fatalf("registry active = %d", h.reg.ActiveVersion())
	}
	if m, _ := h.reg.Manifest(1); m.Status != StatusActive || m.Eval != good {
		t.Fatalf("v1 = %+v", m)
	}
	st := h.ctl.Status()
	if st.State != StateIdle || st.Promotions != 1 || st.Retrains != 1 {
		t.Fatalf("status = %+v", st)
	}
	cancel()
	<-done
}

func TestControllerRejectsWorseCandidate(t *testing.T) {
	h := newCtlHarness(t, bad, good, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = h.ctl.Run(ctx) }()

	if ok, msg := h.ctl.TriggerRetrain(); !ok {
		t.Fatalf("manual trigger refused: %s", msg)
	}
	waitFor(t, h.ctl, func() bool { return h.ctl.Status().LastVerdict == VerdictRejected })

	if got := h.promotions(); len(got) != 0 {
		t.Fatalf("worse candidate was promoted: %v", got)
	}
	if h.reg.ActiveVersion() != 0 {
		t.Fatalf("registry active = %d (incumbent must keep serving)", h.reg.ActiveVersion())
	}
	m, _ := h.reg.Manifest(1)
	if m.Status != StatusRejected {
		t.Fatalf("v1 status = %q", m.Status)
	}
	want := "holdout 100 jobs eligible 1000..7000: cand hit 0.100 mae 20.0 (long 40) vs inc hit 0.950 mae 2.0 (long 40): hit-rate regressed"
	if m.Note != want {
		t.Fatalf("rejection note %q, want %q", m.Note, want)
	}
}

func TestControllerRollsBackRegressedPromotion(t *testing.T) {
	h := newCtlHarness(t, good, bad, func(o *Options) {
		o.RollbackFactor = 1.5
		o.RollbackWindow = 2
	})
	// Pre-promotion online baseline: MAE 10 over a credible window.
	h.drift.set(obs.OnlineStats{Window: 10, Joined: 100, MAEMinutes: 10, RegressionObbs: 5})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = h.ctl.Run(ctx) }()

	if ok, msg := h.ctl.TriggerRetrain(); !ok {
		t.Fatalf("manual trigger refused: %s", msg)
	}
	// The holdout promotes the candidate...
	waitFor(t, h.ctl, func() bool { return h.ctl.Status().State == StateProbation })
	if got := h.promotions(); len(got) != 1 {
		t.Fatalf("promotions = %v", got)
	}
	// ...then the online window fills with post-swap outcomes whose MAE
	// blew past baseline × factor: probation must revert the swap.
	h.drift.set(obs.OnlineStats{Window: 2, Joined: 102, MAEMinutes: 100, RegressionObbs: 2})
	waitFor(t, h.ctl, func() bool { return h.ctl.Status().LastVerdict == VerdictRolledBack })
	if h.rollbacks() != 1 {
		t.Fatalf("rollback callback ran %d times", h.rollbacks())
	}
	if h.reg.ActiveVersion() != 0 {
		t.Fatalf("registry active = %d after rollback", h.reg.ActiveVersion())
	}
	if m, _ := h.reg.Manifest(1); m.Status != StatusRolledBack {
		t.Fatalf("v1 status = %q", m.Status)
	}
}

func TestTriggerRetrainWhileBusyDeclines(t *testing.T) {
	block := make(chan struct{})
	h := newCtlHarness(t, good, bad, func(o *Options) {
		o.Train = func(ctx context.Context) (*Candidate, error) {
			<-block
			return nil, fmt.Errorf("aborted")
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = h.ctl.Run(ctx) }()

	if ok, _ := h.ctl.TriggerRetrain(); !ok {
		t.Fatal("first trigger refused")
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.ctl.Status().State != StateRetraining {
		if time.Now().After(deadline) {
			t.Fatal("retrain never started")
		}
		time.Sleep(time.Millisecond)
	}
	if ok, msg := h.ctl.TriggerRetrain(); ok {
		t.Fatal("second trigger accepted while a cycle is running")
	} else if msg == "" {
		t.Fatal("refusal must explain itself")
	}
	close(block)
	deadline = time.Now().Add(5 * time.Second)
	for h.ctl.Status().LastVerdict != VerdictFailed {
		if time.Now().After(deadline) {
			t.Fatalf("failed train never recorded; status %+v", h.ctl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if st := h.ctl.Status(); st.Failures != 1 || st.LastError == "" {
		t.Fatalf("status after failed train = %+v", st)
	}
}

// TestJudgeHoldout pins the judge predicate, including a holdout with no
// job over the cutoff: its MAE is a clamped 0 on both sides and measures
// nothing, so the long-job count sends the verdict to the hit-rate arm.
func TestJudgeHoldout(t *testing.T) {
	h := newCtlHarness(t, good, bad, nil) // MAERatio 1, HitRateSlack 0.02
	for _, tc := range []struct {
		name      string
		cand, inc Eval
		want      bool
	}{
		{"better on both", good, bad, true},
		{"hit-rate regressed past the slack", Eval{HitRate: 0.80, MAEMinutes: 1, LongJobs: 9}, Eval{HitRate: 0.90, MAEMinutes: 9, LongJobs: 9}, false},
		{"hit-rate within the slack, MAE better", Eval{HitRate: 0.89, MAEMinutes: 5, LongJobs: 9}, Eval{HitRate: 0.90, MAEMinutes: 9, LongJobs: 9}, true},
		{"MAE regressed", Eval{HitRate: 0.95, MAEMinutes: 10, LongJobs: 9}, Eval{HitRate: 0.90, MAEMinutes: 9, LongJobs: 9}, false},
		{"no long job, hit-rate below", Eval{HitRate: 0.89}, Eval{HitRate: 0.90}, false},
		{"no long job, hit-rate tied", Eval{HitRate: 0.90}, Eval{HitRate: 0.90}, true},
	} {
		if got, note := h.ctl.judge(tc.cand, tc.inc); got != tc.want {
			t.Errorf("%s: judge = %v (%s), want %v", tc.name, got, note, tc.want)
		}
	}
}
