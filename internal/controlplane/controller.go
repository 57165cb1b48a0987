package controlplane

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Controller states (the DESIGN §11 lifecycle: Idle→Retraining→
// Promoted/Rejected, with a post-promotion probation that can roll back).
const (
	StateIdle       = "idle"
	StateRetraining = "retraining"
	StateProbation  = "probation"
)

// probationTimeout ends a probation whose window never filled (a quiet
// cluster joins no outcomes); the promotion then stands.
const probationTimeout = time.Hour

// Verdicts recorded after each retrain cycle.
const (
	VerdictPromoted   = "promoted"
	VerdictRejected   = "rejected"
	VerdictFailed     = "failed"
	VerdictRolledBack = "rolled_back"
)

// Candidate is one retrain's output: the serialized bundle (what the
// registry stores and the promote path decodes), the scores the judge
// compares, and the provenance the manifest records.
type Candidate struct {
	Blob []byte
	// Eval is the candidate's score on the trainer's time-ordered holdout
	// and Incumbent the serving model's score on the same jobs.
	Eval      Eval
	Incumbent Eval
	// Holdout describes those jobs (size, eligibility range) for the
	// verdict note.
	Holdout     string
	Hyperparams map[string]string
	Samples     int
	// Watermark is the training-data horizon (live-state engine clock at
	// extraction time).
	Watermark int64
}

// Options wires a Controller to its environment. Registry, Train, Drift,
// and Promote are required; everything else has production defaults.
type Options struct {
	// Registry stores published candidates.
	Registry *Registry
	// Train builds a candidate from current data. It must honor ctx —
	// shutdown and drain cancel retrains through it.
	Train func(ctx context.Context) (*Candidate, error)
	// Drift samples the incumbent's online accuracy (the same source as
	// the trout_online_* gauges); it drives both the retrain trigger and
	// the post-promotion regression check.
	Drift func() obs.OnlineStats
	// Promote atomically swaps the decoded bundle into serving. A typed
	// incompatibility error rejects the candidate instead of panicking
	// at first predict. Once it returns, Drift's window and new joins must
	// cover only answers the promoted bundle gave: probation reads them.
	Promote func(m Manifest, blob []byte) error
	// Rollback restores the bundle that was serving before the last
	// Promote. Required if RollbackFactor > 0.
	Rollback func() error
	// IncumbentID names the currently serving model (fingerprint hex);
	// recorded as each candidate's parent.
	IncumbentID func() string

	// DriftThreshold triggers a retrain when |calibration drift| reaches
	// it; 0 means 0.15, negative disables the drift trigger.
	DriftThreshold float64
	// MAEThreshold triggers a retrain when online MAE (minutes) reaches
	// it; 0 disables.
	MAEThreshold float64
	// MinWindow is how many joined outcomes the online window needs
	// before its signal is trusted; 0 means 64.
	MinWindow int
	// MinInterval spaces automatic retrains; 0 means 30m. Manual
	// triggers bypass it.
	MinInterval time.Duration
	// CheckInterval is the drift (and probation) poll cadence; 0 means
	// 15s.
	CheckInterval time.Duration

	// MAERatio promotes only when the candidate's holdout MAE <= the
	// incumbent's × ratio (when the holdout holds long jobs); 0 means 1.0.
	MAERatio float64
	// HitRateSlack lets the candidate's holdout hit-rate trail the
	// incumbent's by this much before it is disqualified; 0 means 0.02.
	HitRateSlack float64

	// RollbackWindow is how many joined outcomes of the promoted model to
	// observe before the regression check clears it; 0 means 32.
	// RollbackFactor rolls the promotion back when the online MAE over the
	// probation exceeds the pre-promotion MAE × this factor; 0 means 2.0,
	// negative disables probation.
	RollbackWindow int
	RollbackFactor float64

	Logger *slog.Logger

	// Tracer, when set, records each retrain cycle as a hierarchical
	// trace: a "retrain" root with train/publish/promote child spans. Failed cycles are errored traces, so tail sampling always
	// exports them. Nil disables (zero overhead).
	Tracer *obs.Tracer
}

func (o *Options) defaults() error {
	if o.Registry == nil || o.Train == nil || o.Drift == nil || o.Promote == nil {
		return fmt.Errorf("controlplane: controller needs Registry, Train, Drift, and Promote")
	}
	if o.DriftThreshold == 0 {
		o.DriftThreshold = 0.15
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 64
	}
	if o.MinInterval == 0 {
		o.MinInterval = 30 * time.Minute
	}
	if o.CheckInterval <= 0 {
		o.CheckInterval = 15 * time.Second
	}
	if o.MAERatio <= 0 {
		o.MAERatio = 1.0
	}
	if o.HitRateSlack == 0 {
		o.HitRateSlack = 0.02
	}
	if o.RollbackWindow <= 0 {
		o.RollbackWindow = 32
	}
	if o.RollbackFactor == 0 {
		o.RollbackFactor = 2.0
	}
	if o.RollbackFactor > 0 && o.Rollback == nil {
		return fmt.Errorf("controlplane: RollbackFactor > 0 needs a Rollback callback")
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return nil
}

// Status is a consistent snapshot of the controller for /health and the
// admin endpoints.
type Status struct {
	State       string `json:"state"`
	LastVerdict string `json:"last_verdict,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// Candidate identifies the version last published (the one on
	// probation while State is probation); its registry note holds the
	// holdout scores it was judged on.
	CandidateVersion int    `json:"candidate_version,omitempty"`
	CandidateID      string `json:"candidate_id,omitempty"`
	// Cycle counters.
	Retrains        uint64 `json:"retrains"`
	Promotions      uint64 `json:"promotions"`
	Rejections      uint64 `json:"rejections"`
	Failures        uint64 `json:"failures"`
	Rollbacks       uint64 `json:"rollbacks"`
	LastRetrainUnix int64  `json:"last_retrain_unix,omitempty"`
}

// Controller runs the retrain→judge→promote loop. Create with
// NewController, start with Run, trigger manually with TriggerRetrain.
type Controller struct {
	opt Options

	manual chan struct{}

	mu          sync.Mutex
	state       string
	lastVerdict string
	lastErr     string
	candVer     int
	candID      string
	lastRetrain time.Time

	retrains   atomic.Uint64
	promotions atomic.Uint64
	rejections atomic.Uint64
	failures   atomic.Uint64
	rollbacks  atomic.Uint64
}

// NewController validates options and returns an idle controller.
func NewController(opt Options) (*Controller, error) {
	if err := opt.defaults(); err != nil {
		return nil, err
	}
	return &Controller{opt: opt, state: StateIdle, manual: make(chan struct{}, 1)}, nil
}

// TriggerRetrain requests a retrain cycle outside the drift thresholds
// (the POST /admin/retrain path). It reports whether the request was
// accepted; a cycle already running or queued declines.
func (c *Controller) TriggerRetrain() (bool, string) {
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()
	if state != StateIdle {
		return false, "retrain cycle already in progress (state " + state + ")"
	}
	select {
	case c.manual <- struct{}{}:
		return true, "retrain queued"
	default:
		return false, "retrain already queued"
	}
}

// Run executes the control loop until ctx is canceled. Shutdown mid-cycle
// cancels training (through ctx) or ends probation with the promotion
// standing; a process that dies between publish and verdict leaves the
// candidate at StatusShadow in the registry, so the next boot's operator
// can see it was never judged.
func (c *Controller) Run(ctx context.Context) error {
	tick := time.NewTicker(c.opt.CheckInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.manual:
			c.cycle(ctx, "manual")
		case <-tick.C:
			if reason, ok := c.shouldRetrain(); ok {
				c.cycle(ctx, reason)
			}
		}
	}
}

// shouldRetrain evaluates the drift thresholds against the online window.
func (c *Controller) shouldRetrain() (string, bool) {
	c.mu.Lock()
	idle := c.state == StateIdle
	last := c.lastRetrain
	c.mu.Unlock()
	if !idle {
		return "", false
	}
	if !last.IsZero() && time.Since(last) < c.opt.MinInterval {
		return "", false
	}
	st := c.opt.Drift()
	if st.Window < c.opt.MinWindow {
		return "", false
	}
	if th := c.opt.DriftThreshold; th > 0 {
		drift := st.CalibrationDrift
		if drift < 0 {
			drift = -drift
		}
		if drift >= th {
			return fmt.Sprintf("calibration drift %.3f >= %.3f", st.CalibrationDrift, th), true
		}
	}
	if th := c.opt.MAEThreshold; th > 0 && st.RegressionObbs > 0 && st.MAEMinutes >= th {
		return fmt.Sprintf("online MAE %.1f min >= %.1f", st.MAEMinutes, th), true
	}
	return "", false
}

func (c *Controller) setState(state string) {
	c.mu.Lock()
	c.state = state
	c.mu.Unlock()
}

// finish records a cycle's verdict and returns the controller to Idle.
func (c *Controller) finish(verdict, errMsg string) {
	c.mu.Lock()
	c.state = StateIdle
	c.lastVerdict = verdict
	c.lastErr = errMsg
	c.lastRetrain = time.Now()
	c.mu.Unlock()
}

// cycle runs one full Retraining→verdict pass.
func (c *Controller) cycle(ctx context.Context, reason string) {
	log := c.opt.Logger
	c.retrains.Add(1)
	c.setState(StateRetraining)
	log.Info("controlplane: retraining", slog.String("reason", reason))

	tb, root := c.opt.Tracer.StartRoot("retrain")
	root.SetAttr("reason", reason)
	var cycleErr error
	defer func() { c.opt.Tracer.FinishRoot(tb, root, cycleErr) }()

	tsp := root.StartChild("train")
	cand, err := c.opt.Train(ctx)
	if err != nil || cand == nil || len(cand.Blob) == 0 {
		if err == nil {
			err = fmt.Errorf("trainer returned no candidate")
		}
		tsp.EndErr(err)
		cycleErr = err
		c.failures.Add(1)
		c.finish(VerdictFailed, err.Error())
		log.Warn("controlplane: retrain failed", slog.Any("error", err))
		return
	}
	tsp.SetAttrInt("samples", int64(cand.Samples))
	tsp.End()

	parent := ""
	if c.opt.IncumbentID != nil {
		parent = c.opt.IncumbentID()
	}
	psp := root.StartChild("publish")
	m, err := c.opt.Registry.Publish(cand.Blob, Manifest{
		Parent:      parent,
		Watermark:   cand.Watermark,
		Samples:     cand.Samples,
		Hyperparams: cand.Hyperparams,
		Eval:        cand.Eval,
		Status:      StatusShadow,
		Note:        "trigger: " + reason,
	})
	if err != nil {
		psp.EndErr(err)
		cycleErr = err
		c.failures.Add(1)
		c.finish(VerdictFailed, err.Error())
		log.Warn("controlplane: publish failed", slog.Any("error", err))
		return
	}
	psp.SetAttrInt("version", int64(m.Version))
	psp.End()
	c.mu.Lock()
	c.candVer, c.candID = m.Version, m.ID
	c.mu.Unlock()
	log.Info("controlplane: candidate published",
		slog.Int("version", m.Version), slog.String("id", m.ID[:12]),
		slog.Int("samples", m.Samples), slog.Float64("offline_mae", m.Eval.MAEMinutes))

	verdict := VerdictRejected
	better, note := c.judge(cand.Eval, cand.Incumbent)
	note = "holdout " + cand.Holdout + ": " + note
	if better {
		verdict, note = c.promoteAndWatch(ctx, m, cand.Eval, note, root)
	}
	root.SetAttr("verdict", verdict)
	if verdict == VerdictRejected {
		_ = c.opt.Registry.SetStatus(m.Version, StatusRejected, note)
		c.rejections.Add(1)
		c.finish(VerdictRejected, "")
		log.Info("controlplane: candidate rejected",
			slog.Int("version", m.Version), slog.String("note", note))
	}
}

// judge compares the candidate's and incumbent's scores on one holdout:
// the classifier must not regress beyond the slack, and when the holdout
// holds long jobs, the candidate's MAE must clear the ratio. With no long
// job (MAE then measures nothing), hit-rate decides (candidate wins ties —
// it was trained on fresher data).
func (c *Controller) judge(cand, inc Eval) (bool, string) {
	note := fmt.Sprintf("cand hit %.3f mae %.1f (long %d) vs inc hit %.3f mae %.1f (long %d)",
		cand.HitRate, cand.MAEMinutes, cand.LongJobs, inc.HitRate, inc.MAEMinutes, inc.LongJobs)
	if cand.HitRate < inc.HitRate-c.opt.HitRateSlack {
		return false, note + ": hit-rate regressed"
	}
	if cand.LongJobs > 0 && inc.LongJobs > 0 {
		if cand.MAEMinutes > inc.MAEMinutes*c.opt.MAERatio {
			return false, note + ": MAE regressed"
		}
		return true, note
	}
	if cand.HitRate >= inc.HitRate {
		return true, note
	}
	return false, note + ": hit-rate below incumbent"
}

// promoteAndWatch swaps the candidate into serving, then holds it under
// probation: if the online MAE over the promoted model's first
// RollbackWindow joined outcomes blows past the pre-promotion level, the
// swap is instantly reverted. The baseline is captured before the swap
// and the join count after it, so each side is one model's answers.
func (c *Controller) promoteAndWatch(ctx context.Context, m Manifest, holdout Eval, note string, troot obs.SpanHandle) (string, string) {
	log := c.opt.Logger
	psp := troot.StartChild("promote")
	defer psp.End()
	before := c.opt.Drift()
	if err := c.opt.Promote(m, nil); err != nil {
		psp.SetError("promote refused: " + err.Error())
		return VerdictRejected, note + "; promote refused: " + err.Error()
	}
	psp.SetAttrInt("version", int64(m.Version))
	_ = c.opt.Registry.SetActive(m.Version)
	_ = c.opt.Registry.SetStatus(m.Version, StatusActive, note)
	c.promotions.Add(1)
	log.Info("controlplane: candidate promoted",
		slog.Int("version", m.Version), slog.String("id", m.ID[:12]))

	if c.opt.RollbackFactor <= 0 {
		c.finish(VerdictPromoted, "")
		return VerdictPromoted, note
	}

	// Probation: wait for RollbackWindow joins of the promoted model's
	// answers, bounded by probationTimeout (a quiet cluster should not pin
	// the controller).
	joined := c.opt.Drift().Joined
	c.setState(StateProbation)
	deadline := time.Now().Add(probationTimeout)
	tick := time.NewTicker(c.opt.CheckInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.finish(VerdictPromoted, "shutdown during probation")
			return VerdictPromoted, note
		case <-tick.C:
		}
		now := c.opt.Drift()
		if now.Joined-joined < uint64(c.opt.RollbackWindow) {
			if time.Now().After(deadline) {
				c.finish(VerdictPromoted, "")
				return VerdictPromoted, note + "; probation window never filled"
			}
			continue
		}
		// Regression check: the post-swap online MAE must not explode
		// relative to what the incumbent was delivering. A pre-promotion
		// window without regression outcomes falls back to the candidate's
		// own holdout MAE as the baseline.
		baseline := before.MAEMinutes
		if before.RegressionObbs == 0 {
			baseline = holdout.MAEMinutes
		}
		if baseline > 0 && now.RegressionObbs > 0 && now.MAEMinutes > baseline*c.opt.RollbackFactor {
			if err := c.opt.Rollback(); err != nil {
				log.Error("controlplane: rollback failed", slog.Any("error", err))
				c.finish(VerdictPromoted, "rollback failed: "+err.Error())
				return VerdictPromoted, note
			}
			_ = c.opt.Registry.SetActive(0)
			_ = c.opt.Registry.SetStatus(m.Version, StatusRolledBack,
				fmt.Sprintf("online MAE %.1f > %.1f×%.1f after promotion", now.MAEMinutes, baseline, c.opt.RollbackFactor))
			psp.SetError("rolled back: online MAE regressed")
			c.rollbacks.Add(1)
			c.finish(VerdictRolledBack, "")
			log.Warn("controlplane: promotion rolled back",
				slog.Int("version", m.Version),
				slog.Float64("online_mae", now.MAEMinutes),
				slog.Float64("baseline_mae", baseline))
			return VerdictRolledBack, note
		}
		c.finish(VerdictPromoted, "")
		return VerdictPromoted, note
	}
}

// Status snapshots the controller for /health and admin responses.
func (c *Controller) Status() Status {
	c.mu.Lock()
	st := Status{
		State:            c.state,
		LastVerdict:      c.lastVerdict,
		LastError:        c.lastErr,
		CandidateVersion: c.candVer,
		CandidateID:      c.candID,
	}
	if !c.lastRetrain.IsZero() {
		st.LastRetrainUnix = c.lastRetrain.Unix()
	}
	c.mu.Unlock()
	st.Retrains = c.retrains.Load()
	st.Promotions = c.promotions.Load()
	st.Rejections = c.rejections.Load()
	st.Failures = c.failures.Load()
	st.Rollbacks = c.rollbacks.Load()
	return st
}

// stateValue encodes the state for the trout_controlplane_state gauge.
func (c *Controller) stateValue() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case StateRetraining:
		return 1
	case StateProbation:
		return 2
	default:
		return 0
	}
}

// Register exports the trout_controlplane_* metric families on r.
func (c *Controller) Register(r *obs.Registry) {
	r.GaugeFunc("trout_controlplane_state",
		"Control-plane lifecycle state (0=idle, 1=retraining, 2=probation).",
		c.stateValue)
	r.CounterVecFunc("trout_controlplane_retrains_total",
		"Retrain cycles completed, by outcome.", []string{"outcome"},
		func(emit obs.Emit) {
			emit(float64(c.promotions.Load()), VerdictPromoted)
			emit(float64(c.rejections.Load()), VerdictRejected)
			emit(float64(c.failures.Load()), VerdictFailed)
			emit(float64(c.rollbacks.Load()), VerdictRolledBack)
		})
	r.GaugeFunc("trout_controlplane_last_retrain_unix",
		"When the last retrain cycle finished (unix seconds; 0 = never).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.lastRetrain.IsZero() {
				return 0
			}
			return float64(c.lastRetrain.Unix())
		})
	r.GaugeFunc("trout_controlplane_registry_versions",
		"Model versions recorded in the registry manifest.",
		func() float64 { return float64(len(c.opt.Registry.List())) })
	r.GaugeFunc("trout_controlplane_registry_active_version",
		"Registry version currently active (0 = boot bundle).",
		func() float64 { return float64(c.opt.Registry.ActiveVersion()) })
}
