package trout

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tscv"
)

// servingBundle pairs the bundle answering predictions with its registry
// identity. The pair is swapped atomically as one unit, so a response's
// (model_version, model_id) tags always name the bundle that actually
// computed it.
type servingBundle struct {
	b *Bundle
	// version is the control-plane registry version (0 = the boot bundle,
	// which predates the registry).
	version int
	// partitions are b's cluster's partition names, which the predict
	// decoders intern.
	partitions []string
}

func newServingBundle(b *Bundle, version int) *servingBundle {
	sb := &servingBundle{b: b, version: version}
	for _, p := range b.Cluster.Partitions {
		sb.partitions = append(sb.partitions, p.Name)
	}
	return sb
}

// CurrentModel returns the serving bundle and its registry version.
func (s *Service) CurrentModel() (*Bundle, int) {
	sb := s.serving.Load()
	return sb.b, sb.version
}

// SwapBundle atomically replaces the serving bundle after the
// compatibility guard passes, keeping the displaced pair as the rollback
// target. In-flight requests finish on whichever bundle they loaded;
// no request ever observes a half-swapped state. An incompatible
// candidate (wrong feature width, missing scaler or runtime predictor,
// lost partitions) is refused with an IncompatibleBundleError and the
// incumbent keeps serving. A swap resets the online accuracy tracker, so
// its window and its pending answers belong to the bundle now serving
// (an answer in flight across the swap may still be recorded).
func (s *Service) SwapBundle(b *Bundle, version int) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.serving.Load()
	if err := b.CompatibleWith(cur.b); err != nil {
		return err
	}
	s.applyFastInference(b)
	s.prev = cur
	s.serving.Store(newServingBundle(b, version))
	s.tracker.Reset()
	s.swapsTotal.Inc("promote")
	if s.logger != nil {
		s.logger.Info("serving bundle swapped",
			slog.Int("version", version), slog.String("fingerprint", b.Fingerprint),
			slog.Int("prev_version", cur.version))
	}
	return nil
}

// RollbackBundle restores the bundle displaced by the last SwapBundle —
// the instant-rollback path for a promotion that regresses online — and
// resets the online accuracy tracker as SwapBundle does. One level deep:
// a second rollback without an intervening swap errors.
func (s *Service) RollbackBundle() error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.prev == nil {
		return fmt.Errorf("trout: no previous bundle to roll back to")
	}
	s.serving.Store(s.prev)
	s.tracker.Reset()
	if s.logger != nil {
		s.logger.Warn("serving bundle rolled back",
			slog.Int("version", s.prev.version), slog.String("fingerprint", s.prev.b.Fingerprint))
	}
	s.prev = nil
	s.swapsTotal.Inc("rollback")
	return nil
}

// ControlPlaneConfig configures AttachControlPlane. Zero values pick
// production defaults; only RegistryDir is required.
type ControlPlaneConfig struct {
	// RegistryDir is the on-disk model registry root; it keeps five
	// non-active blobs besides the active one.
	RegistryDir string

	// DriftThreshold / MAEThreshold / MinWindow / MinInterval /
	// CheckInterval drive the automatic retrain trigger; see
	// controlplane.Options for semantics and defaults.
	DriftThreshold float64
	MAEThreshold   float64
	MinWindow      int
	MinInterval    time.Duration
	CheckInterval  time.Duration

	// RollbackWindow sizes the post-promotion probation.
	RollbackWindow int

	// Trainer overrides the default retrain path (tests inject synthetic
	// candidates through this).
	Trainer func(ctx context.Context) (*controlplane.Candidate, error)

	Logger *slog.Logger
}

// ControlPlane ties a Service to its continual-learning loop: the
// versioned registry, the retrain controller, and the serving hot-swap.
type ControlPlane struct {
	svc *Service
	reg *controlplane.Registry
	ctl *controlplane.Controller
}

// Registry exposes the model registry.
func (cp *ControlPlane) Registry() *controlplane.Registry { return cp.reg }

// Controller exposes the retrain controller.
func (cp *ControlPlane) Controller() *controlplane.Controller { return cp.ctl }

// Run executes the control loop until ctx is canceled.
func (cp *ControlPlane) Run(ctx context.Context) error { return cp.ctl.Run(ctx) }

// AttachControlPlane opens the model registry, resumes the last promoted
// version (if the registry has one and it is compatible), and wires the
// drift→retrain→judge→swap controller to the service. Call before the
// service starts answering traffic; start the loop with cp.Run.
func (s *Service) AttachControlPlane(cfg ControlPlaneConfig) (*ControlPlane, error) {
	log := cfg.Logger
	if log == nil {
		log = s.logger
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	reg, err := controlplane.OpenRegistry(cfg.RegistryDir, 0)
	if err != nil {
		return nil, err
	}

	// Resume: a previous process promoted a version; serve it again
	// rather than the (older) boot bundle. Incompatible or unreadable
	// blobs log and fall back to the boot bundle — never fail startup
	// over a model we can outlive.
	if v := reg.ActiveVersion(); v != 0 {
		if m, blob, err := reg.Bundle(v); err != nil {
			log.Warn("controlplane: cannot resume active version; serving boot bundle",
				slog.Int("version", v), slog.Any("error", err))
		} else if nb, err := LoadBundle(bytes.NewReader(blob)); err != nil {
			log.Warn("controlplane: active version blob undecodable; serving boot bundle",
				slog.Int("version", v), slog.Any("error", err))
		} else if err := s.SwapBundle(nb, m.Version); err != nil {
			log.Warn("controlplane: active version incompatible; serving boot bundle",
				slog.Int("version", v), slog.Any("error", err))
		} else {
			log.Info("controlplane: resumed active version",
				slog.Int("version", m.Version), slog.String("fingerprint", nb.Fingerprint))
		}
	}

	train := cfg.Trainer
	if train == nil {
		train = s.defaultTrainer()
	}
	ctl, err := controlplane.NewController(controlplane.Options{
		Registry: reg,
		Train:    train,
		Drift:    func() obs.OnlineStats { return s.tracker.Stats() },
		Promote: func(m controlplane.Manifest, _ []byte) error {
			_, blob, err := reg.Bundle(m.Version)
			if err != nil {
				return err
			}
			nb, err := LoadBundle(bytes.NewReader(blob))
			if err != nil {
				return err
			}
			return s.SwapBundle(nb, m.Version)
		},
		Rollback: s.RollbackBundle,
		IncumbentID: func() string {
			b, _ := s.CurrentModel()
			return b.Fingerprint
		},
		DriftThreshold: cfg.DriftThreshold,
		MAEThreshold:   cfg.MAEThreshold,
		MinWindow:      cfg.MinWindow,
		MinInterval:    cfg.MinInterval,
		CheckInterval:  cfg.CheckInterval,
		RollbackWindow: cfg.RollbackWindow,
		Logger:         log,
		Tracer:         s.tracer,
	})
	if err != nil {
		return nil, err
	}
	ctl.Register(s.reg)
	s.cpReg.Store(reg)
	s.ctl.Store(ctl)
	return &ControlPlane{svc: s, reg: reg, ctl: ctl}, nil
}

// finiteOr clamps NaN/Inf/negative eval scores to fallback so the manifest
// validator never rejects a legitimate candidate over an empty holdout.
func finiteOr(v, fallback float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fallback
	}
	return v
}

// holdoutEval scores m on the test rows of ds.
func holdoutEval(m *core.Model, ds *features.Dataset, test []int) controlplane.Eval {
	reg := core.EvaluateRegression(m, ds, test)
	cls := core.EvaluateClassifier(m, ds, test)
	return controlplane.Eval{
		MAEMinutes: finiteOr(reg.MAE, 0),
		MAPE:       finiteOr(reg.MAPE, 0),
		HitRate:    finiteOr(cls.Accuracy(), 0),
		LongJobs:   reg.N,
	}
}

// defaultTrainer is the production retrain path: rebuild the training set
// from the livestate engine's realized waits (jobs that completed the
// submit→start→end lifecycle inside the retention window), re-engineer
// the 33 features, fit the hierarchical model under the incumbent's
// configuration plus its fallback tiers (histogram-GBDT baseline, partition
// medians), score it and the incumbent on the most recent jobs, and
// serialize the bundle for the registry.
func (s *Service) defaultTrainer() func(ctx context.Context) (*controlplane.Candidate, error) {
	const (
		// minTrainJobs is the smallest completed-job corpus a retrain
		// accepts. The livestate engine retains ~25h of history, so this
		// also bounds the staleness of what a retrain can see.
		minTrainJobs = 500
		// testFraction is the most-recent holdout the candidate and the
		// incumbent are judged on (the paper's protocol).
		testFraction = 1.0 / 6.0
	)
	return func(ctx context.Context) (*controlplane.Candidate, error) {
		eng := s.live.Engine()
		watermark := eng.Now()
		incumbent, _ := s.CurrentModel()
		cluster := incumbent.Cluster

		// Records naming partitions the serving cluster spec does not know
		// (added or renamed after the bundle was trained) are skipped, not
		// fatal: one stray record must not poison every retrain until it
		// ages out of the engine's retention window.
		all := eng.CompletedJobs()
		jobs := all[:0]
		for _, j := range all {
			if cluster.Partition(j.Partition) != nil {
				jobs = append(jobs, j)
			}
		}
		if skipped := len(all) - len(jobs); skipped > 0 && s.logger != nil {
			s.logger.Warn("controlplane: retrain skipping jobs on partitions unknown to the serving cluster spec",
				slog.Int("skipped", skipped), slog.Int("usable", len(jobs)))
		}
		if len(jobs) < minTrainJobs {
			return nil, fmt.Errorf("trout: retrain needs %d completed jobs in the engine window, have %d usable", minTrainJobs, len(jobs))
		}

		tr := &Trace{Jobs: jobs}
		opt := features.Options{Seed: incumbent.Model.Cfg.Seed}
		ds, err := livestate.Build(tr, &cluster, opt)
		if err != nil {
			return nil, fmt.Errorf("trout: retrain features: %w", err)
		}
		modelCfg := incumbent.Model.Cfg
		fold, err := tscv.HoldoutRecent(ds.Len(), testFraction)
		if err != nil {
			return nil, fmt.Errorf("trout: retrain holdout: %w", err)
		}
		m, err := core.TrainCtxHooked(ctx, ds, fold.Train, modelCfg, s.TrainHooks())
		if err != nil {
			return nil, fmt.Errorf("trout: retrain: %w", err)
		}
		// The incumbent is judged on the same holdout jobs, from rows
		// replayed with its own runtime forest: the Pred-Runtime columns are
		// the only part of a row a bundle decides, and each model is served
		// rows its own forest filled. The replay asks through a fresh
		// predictor, so the serving forest's memo stays untouched.
		incDS, err := livestate.Replay(tr, &cluster, opt, incumbent.Runtime.Forest)
		if err != nil {
			return nil, fmt.Errorf("trout: retrain incumbent replay: %w", err)
		}

		nb, err := NewBundle(m, ds, &cluster)
		if err != nil {
			return nil, fmt.Errorf("trout: retrain bundle: %w", err)
		}
		var buf bytes.Buffer
		if err := nb.Save(&buf); err != nil {
			return nil, fmt.Errorf("trout: retrain serialize: %w", err)
		}
		first, last := ds.Jobs[fold.Test[0]], ds.Jobs[fold.Test[len(fold.Test)-1]]
		return &controlplane.Candidate{
			Blob:        buf.Bytes(),
			Eval:        holdoutEval(m, ds, fold.Test),
			Incumbent:   holdoutEval(incumbent.Model, incDS, fold.Test),
			Holdout:     fmt.Sprintf("%d jobs eligible %d..%d", len(fold.Test), first.Eligible, last.Eligible),
			Hyperparams: hyperparamMap(modelCfg),
			Samples:     ds.Len(),
			Watermark:   watermark,
		}, nil
	}
}

// hyperparamMap flattens the training configuration into the manifest's
// schema-stable string map.
func hyperparamMap(cfg ModelConfig) map[string]string {
	ints := func(hidden []int) string {
		parts := make([]string, len(hidden))
		for i, h := range hidden {
			parts[i] = strconv.Itoa(h)
		}
		return strings.Join(parts, "x")
	}
	return map[string]string{
		"cutoff_minutes": strconv.FormatFloat(cfg.CutoffMinutes, 'g', -1, 64),
		"scaler":         string(cfg.Scaler),
		"seed":           strconv.FormatInt(cfg.Seed, 10),
		"cls_hidden":     ints(cfg.Classifier.Hidden),
		"cls_lr":         strconv.FormatFloat(cfg.Classifier.LearnRate, 'g', -1, 64),
		"cls_epochs":     strconv.Itoa(cfg.Classifier.Epochs),
		"reg_hidden":     ints(cfg.Regressor.Hidden),
		"reg_lr":         strconv.FormatFloat(cfg.Regressor.LearnRate, 'g', -1, 64),
		"reg_epochs":     strconv.Itoa(cfg.Regressor.Epochs),
		"reg_dropout":    strconv.FormatFloat(cfg.Regressor.Dropout, 'g', -1, 64),
		"reg_activation": string(cfg.Regressor.Activation),
		"smote":          strconv.FormatBool(cfg.UseSMOTE),
	}
}

// ---- admin endpoints ----

// handleAdminRetrain queues a manual retrain cycle: 202 when accepted,
// 409 when a cycle is already running or queued, 503 without an attached
// control plane.
func (s *Service) handleAdminRetrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	ctl := s.ctl.Load()
	if ctl == nil {
		resilience.WriteError(w, http.StatusServiceUnavailable, "retrain: no control plane attached (start with -registry-dir)")
		return
	}
	accepted, msg := ctl.TriggerRetrain()
	code := http.StatusAccepted
	if !accepted {
		code = http.StatusConflict
	}
	s.writeJSON(w, r, code, map[string]any{"accepted": accepted, "message": msg})
}

// adminModelsResponse is the GET /admin/models payload.
type adminModelsResponse struct {
	// Serving identifies the bundle answering predictions right now.
	ServingVersion     int    `json:"serving_version"`
	ServingFingerprint string `json:"serving_fingerprint,omitempty"`
	// Active is the registry's recorded active version (0 = boot bundle).
	Active int `json:"active"`
	// Controller snapshots the retrain lifecycle.
	Controller controlplane.Status `json:"controller"`
	// Versions is every registry manifest entry, oldest first.
	Versions []controlplane.Manifest `json:"versions"`
}

func (s *Service) handleAdminModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	reg, ctl := s.cpReg.Load(), s.ctl.Load()
	if reg == nil || ctl == nil {
		resilience.WriteError(w, http.StatusServiceUnavailable, "models: no control plane attached (start with -registry-dir)")
		return
	}
	b, version := s.CurrentModel()
	s.writeJSON(w, r, http.StatusOK, adminModelsResponse{
		ServingVersion:     version,
		ServingFingerprint: b.Fingerprint,
		Active:             reg.ActiveVersion(),
		Controller:         ctl.Status(),
		Versions:           reg.List(),
	})
}

// adminSwapRequest is the POST /admin/swap body: swap a registry version
// into serving, or roll back to the previously serving bundle.
type adminSwapRequest struct {
	Version  int  `json:"version"`
	Rollback bool `json:"rollback"`
}

// handleAdminSwap is the operator override: promote a specific registry
// version (bypassing the judge) or undo the last swap. The
// compatibility guard still applies — an incompatible bundle answers a
// structured 422 and the incumbent keeps serving.
func (s *Service) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var req adminSwapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		resilience.WriteError(w, resilience.BodyErrorStatus(err), fmt.Sprintf("swap: bad body: %v", err))
		return
	}
	if req.Rollback {
		if err := s.RollbackBundle(); err != nil {
			resilience.WriteError(w, http.StatusConflict, err.Error())
			return
		}
		if reg := s.cpReg.Load(); reg != nil {
			_, version := s.CurrentModel()
			_ = reg.SetActive(version)
		}
		b, version := s.CurrentModel()
		s.writeJSON(w, r, http.StatusOK, map[string]any{
			"serving_version": version, "serving_fingerprint": b.Fingerprint, "rolled_back": true,
		})
		return
	}
	reg := s.cpReg.Load()
	if reg == nil {
		resilience.WriteError(w, http.StatusServiceUnavailable, "swap: no control plane attached (start with -registry-dir)")
		return
	}
	if req.Version <= 0 {
		resilience.WriteError(w, http.StatusBadRequest, "swap: need version > 0 (or rollback: true)")
		return
	}
	m, blob, err := reg.Bundle(req.Version)
	if err != nil {
		resilience.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	nb, err := LoadBundle(bytes.NewReader(blob))
	if err != nil {
		resilience.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("swap: decode version %d: %v", req.Version, err))
		return
	}
	if err := s.SwapBundle(nb, m.Version); err != nil {
		var incompatible *IncompatibleBundleError
		if errors.As(err, &incompatible) {
			resilience.WriteError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		resilience.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	_ = reg.SetActive(m.Version)
	_ = reg.SetStatus(m.Version, controlplane.StatusActive, "manual swap via /admin/swap")
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"serving_version": m.Version, "serving_fingerprint": nb.Fingerprint,
	})
}
