package trout

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/livestate"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// ServiceConfig tunes the dashboard service's resilience envelope. The
// zero value picks production-safe defaults.
type ServiceConfig struct {
	// RequestTimeout bounds each request: past it the handler's context
	// ends, its body reads fail and a first write sends a JSON 504 instead
	// (a reply begun in time completes). 0 means 10s; negative disables it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps POST bodies (oversized requests get a JSON 413).
	// 0 means 8 MiB; negative disables the limit.
	MaxBodyBytes int64
	// MaxBadStateRows is the malformed-record budget for POST /state:
	// up to this many undecodable JSONL rows are skipped and reported
	// rather than failing the upload. 0 means 100; negative is unlimited.
	MaxBadStateRows int
	// MaxBatchJobs caps the jobs accepted in one POST /predict/batch
	// request (larger batches get a JSON 413). 0 means 256; negative
	// disables the cap.
	MaxBatchJobs int
	// Live is the event-sourced cluster-state store backing /events and
	// the fast snapshot path. Nil gets a fresh memory-only store, so the
	// engine always runs; pass a WAL-backed store for durability.
	Live *livestate.Store
	// Logger is the structured logger for access logs, middleware
	// diagnostics, and training telemetry. Nil disables logging.
	Logger *slog.Logger
	// LeaderURL switches the service into follower mode: the live store
	// replicates from the leader troutd at this base URL, /predict and
	// friends serve from the replica, and the write endpoints (/events,
	// /state) are reverse-proxied to the leader instead of handled
	// locally. Empty means leader (normal) mode.
	LeaderURL string
	// Replication tunes the follower pull loop (poll window, retry
	// policy, lag thresholds). Ignored in leader mode; LeaderURL and the
	// live store are filled in by the service.
	Replication replication.FollowerConfig
	// Admission bounds concurrent ingest on POST /events and /state so
	// bursts shed with 429 + Retry-After before touching the engine lock.
	// The zero value enables the gate with its defaults (16 in flight,
	// 64 queued, 1s queue timeout); MaxInFlight < 0 disables it.
	Admission resilience.AdmissionConfig
	// FastInference serves NN predictions from the float32 kernel path
	// (see Bundle.EnableFastInference). Applied to the initial bundle and
	// to every bundle promoted through SwapBundle; a model whose
	// architecture cannot compile onto the f32 path logs a warning and
	// keeps serving on float64.
	FastInference bool
	// Tracer, when set, is a prebuilt hierarchical tracer shared with
	// other subsystems (the daemon builds one and hands it to the WAL
	// store and the service alike). Nil builds one from Tracing.
	Tracer *obs.Tracer
	// Tracing configures the tracer built when Tracer is nil. The zero
	// value is a live tracer with defaults (1% head sampling, 250ms slow
	// threshold, flight recorder on, no file export); set
	// Tracing.Disabled to opt out entirely.
	Tracing obs.TracerConfig
	// SLO declares the availability/latency objectives behind the
	// trout_slo_* burn-rate gauges and the /health slo block. The zero
	// value tracks 99.9% availability and 99% of requests under 500ms;
	// set SLO.Disabled to opt out.
	SLO obs.SLOConfig
}

func (c *ServiceConfig) defaults() {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBadStateRows == 0 {
		c.MaxBadStateRows = 100
	}
	if c.MaxBatchJobs == 0 {
		c.MaxBatchJobs = defaultMaxBatchJobs
	}
}

// Service is the paper's §V "user dashboard tool": an HTTP front-end over a
// trained bundle plus a live queue state. Its routes are README's endpoint
// table, which surface_test.go holds to the registered set.
//
// Every request runs behind panic-recovery, per-request deadline, and
// body-limit middleware; predictions go through the bundle's fallback
// chain, so a poisoned model degrades answers instead of availability.
//
// The event-sourced livestate engine is the only queue state: /state and
// the initial trace seed it, /events and replication advance it, and every
// snapshot is an O(log n + k) indexed extraction from it. What it cannot
// answer is refused rather than guessed: an instant more than an hour
// behind its clock is a 422, a job it does not track as pending a 404 —
// on leader, follower and recovered daemon alike. Historical what-ifs are
// the offline scan's job (cmd/trout -trace ... -job/-at). State updates,
// event ingestion, and predictions are safe for concurrent use.
type Service struct {
	// serving is the bundle answering predictions right now, paired with
	// its registry identity and replaced atomically as one unit by
	// SwapBundle — every response is attributable to exactly one version.
	serving atomic.Pointer[servingBundle]
	// swapMu serializes swaps/rollbacks (readers never take it); prev is
	// the pre-swap serving pair kept as the instant-rollback target.
	swapMu sync.Mutex
	prev   *servingBundle

	// ctl/cpReg are set once by AttachControlPlane; handlers and the
	// start observer feed the controller through the atomic pointers.
	ctl   atomic.Pointer[controlplane.Controller]
	cpReg atomic.Pointer[controlplane.Registry]

	cfg    ServiceConfig
	logger *slog.Logger
	// logf is the printf adapter over logger for middleware diagnostics
	// (recovered panics); nil when logger is.
	logf  func(format string, args ...any)
	live  *livestate.Store
	ready atomic.Bool

	// tracer/slo are the hierarchical-tracing and SLO-objective sinks;
	// both are nil-safe throughout, so disabled configurations cost one
	// nil check per call site.
	tracer *obs.Tracer
	slo    *obs.SLOTracker

	// Runtime telemetry: every family lives in one obs.Registry and is
	// rendered by GET /metrics.
	reg          *obs.Registry
	tiers        *obs.CounterVec   // trout_predictions_total{tier}
	batchSize    *obs.Histogram    // trout_predict_batch_size
	httpReqs     *obs.CounterVec   // trout_http_requests_total{path,code}
	httpLatency  *obs.Histogram    // trout_http_request_duration_seconds
	stageLatency *obs.HistogramVec // trout_predict_stage_duration_seconds{stage}
	tracker      *obs.AccuracyTracker
	telemetry    *obs.TrainTelemetry
	swapsTotal   *obs.CounterVec // trout_model_swaps_total{kind}

	// Replication: every service exposes the leader-side endpoints over
	// its own store; follower mode additionally runs a pull loop and
	// forwards writes.
	repLeader *replication.Leader
	follower  *replication.Follower
	admission *resilience.Admission
	admTotal  *obs.CounterVec // trout_admission_total{decision}
}

// NewServiceWith wraps a bundle in the HTTP service; the zero ServiceConfig
// is the default resilience configuration. When the live store's engine is
// empty (fresh store, or a WAL directory with nothing to recover), the
// initial trace (may be nil) seeds it.
func NewServiceWith(b *Bundle, initial *Trace, cfg ServiceConfig) (*Service, error) {
	if b == nil {
		return nil, fmt.Errorf("trout: service needs a bundle")
	}
	cfg.defaults()
	if err := validSLO(cfg.SLO); err != nil {
		return nil, err
	}
	if cfg.Live == nil {
		st, err := livestate.OpenStore(livestate.StoreOptions{})
		if err != nil {
			return nil, err
		}
		cfg.Live = st
	}
	s := &Service{
		cfg:    cfg,
		logger: cfg.Logger,
		logf:   obs.Logf(cfg.Logger),
		live:   cfg.Live,
	}
	s.tracer = cfg.Tracer
	if s.tracer == nil {
		tr, err := obs.NewTracer(cfg.Tracing)
		if err != nil {
			return nil, fmt.Errorf("trout: tracer setup: %w", err)
		}
		s.tracer = tr
	}
	s.slo = obs.NewSLOTracker(cfg.SLO)
	s.applyFastInference(b)
	s.serving.Store(newServingBundle(b, 0))
	s.repLeader = replication.NewLeader(s.live)
	if cfg.LeaderURL != "" {
		fc := cfg.Replication
		fc.LeaderURL = cfg.LeaderURL
		fc.Store = s.live
		if fc.Logger == nil {
			fc.Logger = cfg.Logger
		}
		if fc.Tracer == nil {
			fc.Tracer = s.tracer
		}
		f, err := replication.NewFollower(fc)
		if err != nil {
			return nil, fmt.Errorf("trout: follower setup: %w", err)
		}
		s.follower = f
	}
	s.initTelemetry()
	adm := cfg.Admission
	if adm.OnDecision == nil {
		adm.OnDecision = func(d string) { s.admTotal.Inc(d) }
	}
	s.admission = resilience.NewAdmission(adm)
	// A follower's replica is fed by the leader's stream, never by a local
	// seed — seeding would just diverge it and force a re-snapshot.
	if s.follower == nil && initial != nil && len(initial.Jobs) > 0 && s.live.Engine().Stats().Tracked == 0 {
		if _, err := s.live.Seed(initial); err != nil {
			return nil, fmt.Errorf("trout: seeding live state: %w", err)
		}
	}
	s.ready.Store(true)
	return s, nil
}

// validSLO refuses an enabled SLO whose burn rates cannot be served. A
// burn rate divides by the error budget 1 - target: a target of 1 makes
// it NaN, which /health cannot encode and no alert compares against, and
// a target above 1 makes it negative, so it never pages.
func validSLO(c obs.SLOConfig) error {
	if c.Disabled {
		return nil
	}
	for _, o := range []struct {
		name, flag string
		target     float64
	}{
		{"availability", "-slo-availability", c.AvailabilityTarget},
		{"latency", "-slo-latency-target", c.LatencyTarget},
	} {
		if o.target != 0 && !(o.target > 0 && o.target < 1) { // 0 picks the default
			return fmt.Errorf("trout: SLO %s target %v (%s) must lie strictly between 0 and 1", o.name, o.target, o.flag)
		}
	}
	if c.LatencyThreshold < 0 {
		return fmt.Errorf("trout: SLO latency threshold %v (-slo-latency-threshold) is negative", c.LatencyThreshold)
	}
	return nil
}

// applyFastInference moves b onto the configured inference path. It is
// called on every bundle that becomes the serving bundle (initial and
// swapped-in), so the FastInference setting survives hot-swaps. Failure
// to compile is not fatal: the bundle keeps serving on float64 and the
// mismatch is logged.
func (s *Service) applyFastInference(b *Bundle) {
	if b == nil || !s.cfg.FastInference {
		return
	}
	if !b.EnableFastInference() && s.logger != nil {
		s.logger.Warn("fast inference requested but model did not compile onto the float32 path; serving float64",
			slog.String("fingerprint", b.Fingerprint))
	}
}

// StartReplication launches the follower pull loop; it runs until ctx is
// canceled. No-op in leader mode. The daemon (or test) owns the context.
func (s *Service) StartReplication(ctx context.Context) {
	if s.follower != nil {
		go func() { _ = s.follower.Run(ctx) }()
	}
}

// Follower exposes the replication pull loop (nil in leader mode).
func (s *Service) Follower() *replication.Follower { return s.follower }

// ReplicationLeader exposes the leader-side replication endpoints wrapper.
func (s *Service) ReplicationLeader() *replication.Leader { return s.repLeader }

// initTelemetry builds the service's metric registry: the hot-path
// families the handlers update directly, scrape-time collectors over the
// livestate engine and WAL, the online accuracy tracker (joined against
// engine start events), and the training telemetry families.
func (s *Service) initTelemetry() {
	r := obs.NewRegistry()
	s.reg = r
	s.tiers = r.CounterVec("trout_predictions_total",
		"Predictions answered, by fallback tier.", "tier")
	s.batchSize = r.Histogram("trout_predict_batch_size",
		"Jobs per POST /predict/batch request.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	s.httpReqs = r.CounterVec("trout_http_requests_total",
		"HTTP requests completed, by path and status code.", "path", "code")
	s.httpLatency = r.Histogram("trout_http_request_duration_seconds",
		"HTTP request latency.", obs.DefaultLatencyBuckets)
	s.stageLatency = r.HistogramVec("trout_predict_stage_duration_seconds",
		"Prediction pipeline stage latency (snapshot, featurize, scale, classify, regress, fallback).",
		obs.DefaultStageBuckets, "stage")

	// Live-state engine and WAL families are sampled at scrape time — the
	// engine already keeps these counts; mirroring them per event would
	// double the ingest path's bookkeeping.
	eng := s.live.Engine()
	r.CounterVecFunc("trout_livestate_events_total",
		"Events applied to the live-state engine, by type.", []string{"type"},
		func(emit obs.Emit) {
			for ty, n := range eng.Stats().Events {
				emit(float64(n), ty)
			}
		})
	r.CounterFunc("trout_livestate_apply_errors_total",
		"Events rejected by the live-state engine (duplicate, unknown job, stale order).",
		func() float64 { return float64(eng.Stats().ApplyErrors) })
	r.GaugeVecFunc("trout_queue_pending",
		"Pending jobs tracked by the live-state engine, by partition.", []string{"partition"},
		func(emit obs.Emit) {
			for p, pc := range eng.Stats().Partitions {
				emit(float64(pc.Pending), p)
			}
		})
	r.GaugeVecFunc("trout_queue_running",
		"Running jobs tracked by the live-state engine, by partition.", []string{"partition"},
		func(emit obs.Emit) {
			for p, pc := range eng.Stats().Partitions {
				emit(float64(pc.Running), p)
			}
		})
	r.GaugeFunc("trout_livestate_history_entries",
		"Submission-history records inside the 24h rolling window.",
		func() float64 { return float64(eng.Stats().HistoryEntries) })
	r.GaugeFunc("trout_wal_lag_records",
		"Applied events not yet covered by a checkpoint (LSN - checkpoint LSN).",
		func() float64 { m := s.live.Metrics(); return float64(m.LSN - m.CheckpointLSN) })
	r.CounterFunc("trout_checkpoints_total",
		"Checkpoints taken since the store opened.",
		func() float64 { return float64(s.live.Metrics().Checkpoints) })

	// Online accuracy: served predictions are remembered by job ID and
	// joined against realized queue times when the engine sees the job
	// start — the production counterpart of the paper's offline metrics.
	s.tracker = obs.NewAccuracyTracker(s.serving.Load().b.cutoffMinutes(), 0, 0)
	s.tracker.Register(r)
	eng.SetStartObserver(func(jobID int, eligible, start int64) {
		s.tracker.Resolve(jobID, eligible, start)
	})

	// Model identity: which bundle is serving, by registry version and
	// content fingerprint — followers export it too, so a fleet scrape
	// shows exactly which model answers where.
	r.InfoFunc("trout_model_info",
		"Serving model identity (constant 1; labels carry version and SHA-256 fingerprint).",
		[]string{"version", "fingerprint"},
		func() []string {
			sb := s.serving.Load()
			return []string{strconv.Itoa(sb.version), sb.b.Fingerprint}
		})
	s.swapsTotal = r.CounterVec("trout_model_swaps_total",
		"Serving-bundle swaps, by kind (promote vs rollback).", "kind")

	// Admission control: decisions are pushed by the gate's hook; depth
	// gauges are sampled at scrape time.
	s.admTotal = r.CounterVec("trout_admission_total",
		"Ingest admission decisions (accepted vs shed_*).", "decision")
	r.GaugeFunc("trout_admission_in_flight",
		"Ingest requests currently holding an admission slot.",
		func() float64 { return float64(s.admission.InFlight()) })

	// Serving hot path: how often a snapshot reused the engine's memoized
	// queue extraction.
	r.CounterVecFunc("trout_snapshot_cache_requests_total",
		"Snapshot extractions, by whether the engine's queue memo answered (hit) or the queue was extracted afresh (miss).",
		[]string{"result"},
		func(emit obs.Emit) {
			st := eng.Stats()
			emit(float64(st.SnapshotHits), "hit")
			emit(float64(st.SnapshotMisses), "miss")
		})
	// Grows near 0 while the bundle's memo holds the live queue; once the
	// queue has outgrown it, by about the queue depth per queue version
	// (each /events step or queue-memo miss builds one queue column), not per
	// prediction.
	r.CounterFunc("trout_jobruntime_evals_total",
		"Job-runtime forest evaluations by the serving bundle (its memo's misses); restarts at 0 when the bundle is swapped.",
		func() float64 { return float64(s.serving.Load().b.Runtime.Evals()) })

	// Follower-side lag and progress (follower mode only).
	if s.follower != nil {
		r.GaugeFunc("trout_replication_lag_events",
			"Events the replica is behind the leader's durable LSN.",
			func() float64 { return float64(s.follower.Stats().LagEvents) })
		r.GaugeFunc("trout_replication_lag_seconds",
			"Seconds since the replica was last caught up with the leader.",
			func() float64 { return s.follower.Stats().LagSeconds })
		r.GaugeFunc("trout_replication_caught_up",
			"1 once the replica has fully caught up with the leader at least once.",
			func() float64 {
				if s.follower.Stats().CaughtUp {
					return 1
				}
				return 0
			})
		r.CounterFunc("trout_replication_records_applied_total",
			"WAL records replayed into the replica.",
			func() float64 { return float64(s.follower.Stats().RecordsApplied) })
		r.CounterFunc("trout_replication_fetch_errors_total",
			"Failed replication fetches (network faults, leader outages).",
			func() float64 { return float64(s.follower.Stats().FetchErrors) })
		r.CounterFunc("trout_replication_resnapshots_total",
			"Full re-snapshots taken after divergence, retention gaps, or state swaps.",
			func() float64 { return float64(s.follower.Stats().Resnapshots) })
	}

	// Hierarchical tracing activity, SLO burn rates, and runtime
	// self-telemetry. All three register fixed series sets, so the
	// exposition stays deterministic scrape-to-scrape.
	s.tracer.Register(r)
	s.slo.Register(r)
	obs.RegisterRuntime(r)

	s.telemetry = obs.NewTrainTelemetry(r, s.logger)
}

// Tracer exposes the service's hierarchical tracer (nil when tracing is
// disabled — every method on it is nil-safe).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Registry exposes the service's metric registry (for the daemon to add
// process-level families).
func (s *Service) Registry() *obs.Registry { return s.reg }

// Telemetry exposes the training telemetry sink.
func (s *Service) Telemetry() *obs.TrainTelemetry { return s.telemetry }

// Tracker exposes the online accuracy tracker.
func (s *Service) Tracker() *obs.AccuracyTracker { return s.tracker }

// TrainHooks returns core training hooks wired to the service's telemetry:
// refits observed through them surface on /metrics and in the structured
// log.
func (s *Service) TrainHooks() core.TrainHooks {
	return core.TrainHooks{
		OnEpoch: func(head string, st nn.EpochStats) {
			s.telemetry.ObserveEpoch(head, st.Epoch, st.TrainLoss, st.GradNorm, st.LR)
		},
		OnRollback: func(head string, epoch, events int, lr float64) {
			s.telemetry.ObserveRollback(head, epoch, events, lr)
		},
	}
}

// LiveStore exposes the event-sourced state store (for the daemon's
// checkpoint loop and shutdown hooks).
func (s *Service) LiveStore() *livestate.Store { return s.live }

// SetReady flips the /ready endpoint; the daemon marks itself unready
// before draining so load balancers stop routing new traffic.
func (s *Service) SetReady(ready bool) { s.ready.Store(ready) }

// FallbackCounters exposes a snapshot of the per-tier prediction counters.
func (s *Service) FallbackCounters() map[string]uint64 { return s.tiers.Snapshot() }

// tiersDegraded reports whether any tier other than primary has answered
// at least once — the /health degradation flag.
func tiersDegraded(snap map[string]uint64, primary string) bool {
	for k, v := range snap {
		if k != primary && v > 0 {
			return true
		}
	}
	return false
}

// metricRoutes are the path labels exported on /metrics; anything else is
// clamped to "other" to bound label cardinality.
var metricRoutes = map[string]bool{
	"/health": true, "/ready": true, "/predict": true, "/predict/batch": true,
	"/state": true, "/events": true, "/features": true, "/metrics": true,
	"/replication/wal": true, "/replication/snapshot": true, "/replication/status": true,
	"/admin/retrain": true, "/admin/models": true, "/admin/swap": true,
	"/debug/requests": true,
}

// Handler returns the service's HTTP routes wrapped in the middleware
// stack (outermost first): observability (trace ID, spans, request
// metrics, access log), panic recovery, per-request deadline, body limit.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/ready", s.handleReady)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/predict/batch", s.handlePredictBatch)
	if s.follower != nil {
		// Followers own no write path: /events and /state belong to the
		// leader, reached through a transparent reverse proxy.
		fw := s.forwardWrites()
		mux.Handle("/state", fw)
		mux.Handle("/events", fw)
	} else {
		// Leader ingest runs behind admission control: bursts shed with
		// 429 + Retry-After before any body parsing or engine locking.
		mux.Handle("/state", s.admission.Middleware(http.HandlerFunc(s.handleState)))
		mux.Handle("/events", s.admission.Middleware(http.HandlerFunc(s.handleEvents)))
	}
	mux.HandleFunc("/features", s.handleFeatures)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	// Model-lifecycle admin surface. Registered unconditionally so the
	// endpoints are discoverable; without an attached control plane the
	// registry-backed ones answer 503.
	mux.HandleFunc("/admin/retrain", s.handleAdminRetrain)
	mux.HandleFunc("/admin/models", s.handleAdminModels)
	mux.HandleFunc("/admin/swap", s.handleAdminSwap)
	// Replication serving works on any node (chained followers fan out);
	// /replication/wal answers 501 on memory-only stores.
	s.repLeader.Register(mux)
	var h http.Handler = mux
	h = resilience.MaxBytes(h, s.cfg.MaxBodyBytes)
	// The WAL long-poll parks at the log head for up to its wait parameter
	// by design, and snapshot ships can outlast a prediction-sized deadline
	// on a large engine state — under the per-request Timeout every idle
	// poll would 504 and a follower of a quiet leader could never complete
	// its first fetch. Replication endpoints bound themselves (wait clamp +
	// client disconnect), so they bypass the deadline middleware.
	timed := resilience.Timeout(h, s.cfg.RequestTimeout, s.logf)
	untimed := h
	h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/replication/") {
			untimed.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
	h = resilience.Recover(h, s.logf)
	h = obs.Instrument(h, obs.HTTPOptions{
		Logger:       s.logger,
		Requests:     s.httpReqs,
		Latency:      s.httpLatency,
		StageLatency: s.stageLatency,
		Tracer:       s.tracer,
		SLO:          s.slo,
		PathFor: func(r *http.Request) string {
			if metricRoutes[r.URL.Path] {
				return r.URL.Path
			}
			return "other"
		},
	})
	return h
}

// healthResponse is the /health payload.
type healthResponse struct {
	Status        string            `json:"status"`
	CutoffMinutes float64           `json:"cutoff_minutes"`
	NumFeatures   int               `json:"num_features"`
	QueueJobs     int               `json:"queue_jobs"`
	Partitions    int               `json:"partitions"`
	FallbackTiers map[string]uint64 `json:"fallback_tiers"`
	Degraded      bool              `json:"degraded"`
	// Model identifies the serving bundle (registry version + SHA-256
	// fingerprint); followers report it too.
	Model modelHealth `json:"model"`
	// ControlPlane reports the retrain lifecycle (leader nodes with a
	// control plane attached only).
	ControlPlane *controlplane.Status `json:"control_plane,omitempty"`
	// Live summarizes the event-sourced engine's state.
	Live liveHealth `json:"live"`
	// Replication reports this node's role and, for followers, lag.
	Replication replicationHealth `json:"replication"`
	// SLO reports the rolling error-budget burn rates and the
	// multi-window alert state (omitted when SLO tracking is disabled).
	SLO *obs.SLOStatus `json:"slo,omitempty"`
}

// modelHealth is the /health model-identity section.
type modelHealth struct {
	// Version is the registry version serving (0 = the boot bundle).
	Version int `json:"version"`
	// Fingerprint is the SHA-256 of the serving bundle's gob encoding
	// (empty for in-memory bundles that were never serialized).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Swaps counts hot-swaps since boot, by kind.
	Swaps map[string]uint64 `json:"swaps,omitempty"`
}

// replicationHealth is the /health replication section. Leader fields are
// always present; follower fields only in follower mode.
type replicationHealth struct {
	Role       string `json:"role"` // "leader" | "follower"
	DurableLSN uint64 `json:"durable_lsn"`
	Gen        uint64 `json:"state_gen"`
	// Follower-only:
	LeaderURL   string  `json:"leader_url,omitempty"`
	CaughtUp    bool    `json:"caught_up,omitempty"`
	LagEvents   uint64  `json:"lag_events,omitempty"`
	LagSeconds  float64 `json:"lag_seconds,omitempty"`
	Resnapshots uint64  `json:"resnapshots,omitempty"`
	LastError   string  `json:"last_error,omitempty"`
}

type liveHealth struct {
	Now     int64 `json:"now"`
	Pending int   `json:"pending"`
	Running int   `json:"running"`
	Tracked int   `json:"tracked"`
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	sb := s.serving.Load()
	st := s.live.Engine().Stats()
	tiers := s.tiers.Snapshot()
	sm := s.live.Metrics()
	rep := replicationHealth{Role: "leader", DurableLSN: sm.DurableLSN, Gen: sm.Gen}
	degraded := tiersDegraded(tiers, resilience.TierNN)
	status := "ok"
	if s.follower != nil {
		fs := s.follower.Stats()
		rep.Role = "follower"
		rep.LeaderURL = fs.LeaderURL
		rep.CaughtUp = fs.CaughtUp
		rep.LagEvents = fs.LagEvents
		rep.LagSeconds = fs.LagSeconds
		rep.Resnapshots = fs.Resnapshots
		if err := s.follower.Err(); err != nil {
			// Replication lag past threshold (or lost leader): the node
			// still answers, but from stale state.
			status = "degraded"
			degraded = true
			rep.LastError = err.Error()
		} else if fs.LastError != "" {
			rep.LastError = fs.LastError
		}
	}
	var cpStatus *controlplane.Status
	if ctl := s.ctl.Load(); ctl != nil {
		cs := ctl.Status()
		cpStatus = &cs
	}
	var sloStatus *obs.SLOStatus
	if s.slo != nil {
		ss := s.slo.Status()
		sloStatus = &ss
	}
	s.writeJSON(w, r, http.StatusOK, healthResponse{
		Status:        status,
		CutoffMinutes: sb.b.Model.Cfg.CutoffMinutes,
		NumFeatures:   sb.b.Model.NumInputs,
		QueueJobs:     st.Tracked,
		Partitions:    len(sb.b.Cluster.Partitions),
		FallbackTiers: tiers,
		Degraded:      degraded,
		Model: modelHealth{
			Version:     sb.version,
			Fingerprint: sb.b.Fingerprint,
			Swaps:       s.swapsTotal.Snapshot(),
		},
		ControlPlane: cpStatus,
		Live: liveHealth{
			Now: st.Now, Pending: st.Pending, Running: st.Running, Tracked: st.Tracked,
		},
		Replication: rep,
		SLO:         sloStatus,
	})
}

// handleDebugRequests serves the flight recorder: the N slowest and the
// N most recent errored requests, full span trees included, so a trace
// ID from a log line or a response's X-Request-ID can be inspected without
// any external tracing backend.
func (s *Service) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !s.tracer.Enabled() {
		resilience.WriteError(w, http.StatusNotImplemented, "tracing disabled")
		return
	}
	snap := s.tracer.Recorder().Snapshot()
	snap.SlowThresholdMs = float64(s.tracer.SlowThreshold()) / 1e6
	s.writeJSON(w, r, http.StatusOK, snap)
}

func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !s.ready.Load() {
		resilience.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// A follower is ready only once its replica has caught up and stays
	// within the lag threshold — load balancers should not route fresh
	// traffic to a stale replica, even though /predict still answers
	// (degraded) for clients already pinned to it.
	if s.follower != nil {
		if err := s.follower.Err(); err != nil {
			resilience.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	s.writeJSON(w, r, http.StatusOK, map[string]bool{"ready": true})
}

// forwardWrites returns the follower-mode handler for the write endpoints:
// a transparent reverse proxy to the leader, which carries the inbound
// X-Request-ID across the hop without a client round trip and, with
// tracing on, names this request's root span in X-Trout-Parent-Span so
// the leader's trace links to it.
func (s *Service) forwardWrites() http.Handler {
	target, err := url.Parse(s.cfg.LeaderURL)
	if err != nil || target.Scheme == "" || target.Host == "" {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			resilience.WriteError(w, http.StatusBadGateway,
				fmt.Sprintf("follower: bad leader URL %q", s.cfg.LeaderURL))
		})
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	if s.tracer.Enabled() {
		direct := proxy.Director
		proxy.Director = func(r *http.Request) {
			direct(r)
			r.Header.Set(obs.ParentSpanHeader, obs.FormatSpanID(obs.TraceFrom(r.Context()).Root().ID()))
		}
	}
	proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		resilience.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("follower: leader unreachable: %v", err))
	}
	return proxy
}

// parseJobID strictly parses a ?job=ID query parameter: the whole value
// must be an integer (fmt.Sscanf's tolerance for trailing garbage like
// "12abc" let malformed requests through as job 12).
func parseJobID(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("job")
	if raw == "" {
		return 0, fmt.Errorf("need ?job=<id>")
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad job id %q", raw)
	}
	if id < 0 {
		return 0, fmt.Errorf("bad job id %d: must be non-negative", id)
	}
	return id, nil
}

// predictRequest is the POST /predict body: a hypothetical job plus the
// prediction instant.
type predictRequest struct {
	At  int64     `json:"at"`
	Job trace.Job `json:"job"`
}

// predictResponse is the /predict payload. Tier names the fallback tier
// that answered ("nn" when the neural network is healthy). Source is
// always "live" — the engine is the only snapshot source — and stays on
// the wire because bench/check.go requires the field.
type predictResponse struct {
	Long    bool    `json:"long"`
	Prob    float64 `json:"prob"`
	Minutes float64 `json:"minutes,omitempty"`
	Message string  `json:"message"`
	Tier    string  `json:"tier"`
	Source  string  `json:"snapshot_source"`
	Pending int     `json:"pending_in_snapshot"`
	Running int     `json:"running_in_snapshot"`
	// ModelVersion/ModelID attribute the answer to exactly one serving
	// bundle (version 0 = the boot bundle; ID is its SHA-256 fingerprint,
	// empty for never-serialized in-memory bundles).
	ModelVersion int    `json:"model_version"`
	ModelID      string `json:"model_id,omitempty"`
	// cutoff words the message, core.Prediction{Long, Minutes}.Message(cutoff),
	// which the fast encoder appends in place; Message is set only by
	// withMessage, for the encoding/json fallback.
	cutoff float64
}

// withMessage is v with its message spelled out in Message.
func (v predictResponse) withMessage() predictResponse {
	v.Message = core.Prediction{Long: v.Long, Minutes: v.Minutes}.Message(v.cutoff)
	return v
}

// sourceLive is the snapshot_source every response carries.
const sourceLive = "live"

// resolveWhatIf is the one request resolver behind POST /predict and POST
// /predict/batch: it validates the instant, validates and defaults each of
// a's hypothetical jobs in place, and assembles every snapshot at once
// under the snapshot span, into a's block. It returns nil after writing a
// refusal. single drops the jobs[i] prefix a batch puts on a bad job's
// message.
func (s *Service) resolveWhatIf(w http.ResponseWriter, root obs.SpanHandle, a *predictArena, at int64, single bool) []*Snapshot {
	refuse := func(code int, format string, args ...any) []*Snapshot {
		resilience.WriteError(w, code, "predict: "+fmt.Sprintf(format, args...))
		return nil
	}
	jobs := a.jobs
	if at == 0 {
		return refuse(http.StatusBadRequest, "need at (unix seconds)")
	}
	if at < 0 {
		return refuse(http.StatusBadRequest, "at must be positive unix seconds, got %d", at)
	}
	if len(jobs) == 0 {
		return refuse(http.StatusBadRequest, "need at least one job")
	}
	if max := s.cfg.MaxBatchJobs; max > 0 && len(jobs) > max {
		return refuse(http.StatusRequestEntityTooLarge, "batch of %d jobs exceeds limit %d", len(jobs), max)
	}
	for i := range jobs {
		if jobs[i].ID < 0 {
			where := fmt.Sprintf("jobs[%d]: ", i)
			if single {
				where = ""
			}
			return refuse(http.StatusBadRequest, "%sbad job id %d: must be non-negative", where, jobs[i].ID)
		}
		if jobs[i].Eligible == 0 {
			jobs[i].Eligible = at
		}
		if jobs[i].Submit == 0 {
			jobs[i].Submit = at
		}
	}
	sp := root.StartChild(obs.StageSnapshot)
	now, ok := s.live.Engine().Ready(at)
	if ok {
		a.block = resize(a.block, len(jobs))
		s.live.Engine().SnapshotBatchInto(a.block, jobs, at)
	}
	sp.End()
	if !ok {
		// An answer from whatever queue the engine has not yet pruned would
		// be a confident forecast of the wrong state.
		return refuse(http.StatusUnprocessableEntity,
			"at %d is more than an hour behind the engine clock %d; replay history offline with cmd/trout -trace ... -at", at, now)
	}
	return a.snapshotsOf(len(jobs))
}

// serve answers resolved snapshots — every /predict and /predict/batch
// job — from one serving-bundle load, so prediction, message cutoff and
// response attribution come from the same version even if a hot-swap lands
// mid-request. Each served answer counts under its tier, is remembered so
// the online accuracy tracker can join it against the job's realized start
// event. A job whose feature row could not be built is a bad request, not
// a tier outcome: only fallback-tier answers and an exhausted chain may
// mark /health degraded. The results are a's.
func (s *Service) serve(a *predictArena, snaps []*Snapshot, root obs.SpanHandle) (*servingBundle, []BatchResult) {
	sb := s.serving.Load()
	results := sb.b.predictBatch(a, snaps, root)
	for i, res := range results {
		if res.Tier != "" {
			s.tiers.Inc(res.Tier)
		}
		if res.Err != nil {
			continue
		}
		s.tracker.Record(snaps[i].Target.ID, res.Prob, res.Minutes, res.Long)
	}
	return sb, results
}

// readPredictBody reads a POST /predict{,/batch} body into rb and decodes
// it into req, zeroed first: fast is the jsonfast decoder for the
// endpoint's shape, and anything outside its subset (or malformed) restarts
// from zero under encoding/json, which rules — identical semantics and
// error text to the pre-fast-path decoder. It reports false after writing
// the refusal.
func readPredictBody[T any](w http.ResponseWriter, r *http.Request, rb *respBuf, fast func([]byte, *T) bool, req *T) bool {
	*req = *new(T)
	body, err := readBody(rb, r.Body)
	if err == nil && !fast(body, req) {
		*req = *new(T)
		err = json.NewDecoder(bytes.NewReader(body)).Decode(req)
	}
	if err != nil {
		resilience.WriteError(w, resilience.BodyErrorStatus(err), fmt.Sprintf("predict: bad body: %v", err))
		return false
	}
	return true
}

func (s *Service) handlePredict(w http.ResponseWriter, r *http.Request) {
	root := obs.TraceFrom(r.Context()).Root()
	a := getArena()
	defer putArena(a)
	var snaps []*Snapshot
	switch r.Method {
	case http.MethodGet:
		jobID, err := parseJobID(r)
		if err != nil {
			resilience.WriteError(w, http.StatusBadRequest, fmt.Sprintf("predict: %v", err))
			return
		}
		sp := root.StartChild(obs.StageSnapshot)
		snap, err := s.live.Engine().SnapshotForJob(jobID)
		sp.End()
		if err != nil {
			resilience.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		a.snaps = append(a.snaps[:0], snap)
		snaps = a.snaps
	case http.MethodPost:
		rb := getRespBuf()
		defer putRespBuf(rb)
		names := s.serving.Load().partitions
		req := &a.one
		if !readPredictBody(w, r, rb, func(body []byte, req *predictRequest) bool {
			return decodePredictRequest(body, req, names)
		}, req) {
			return
		}
		a.jobs = append(a.jobs[:0], req.Job)
		if snaps = s.resolveWhatIf(w, root, a, req.At, true); snaps == nil {
			return
		}
	default:
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}

	sb, results := s.serve(a, snaps, root)
	snap, pred := snaps[0], results[0]
	if pred.Err != nil {
		resilience.WriteError(w, http.StatusBadRequest, pred.Err.Error())
		return
	}
	s.writePredictResponse(w, r, &predictResponse{
		Long: pred.Long, Prob: pred.Prob, Minutes: pred.Minutes,
		Tier:    pred.Tier,
		Source:  sourceLive,
		Pending: len(snap.Pending), Running: len(snap.Running),
		ModelVersion: sb.version, ModelID: sb.b.Fingerprint,
		cutoff: sb.b.Model.Cfg.CutoffMinutes,
	})
}

// predictBatchRequest is the POST /predict/batch body: up to MaxBatchJobs
// hypothetical jobs, all evaluated at one prediction instant.
type predictBatchRequest struct {
	At   int64       `json:"at"`
	Jobs []trace.Job `json:"jobs"`
}

// batchItem is one job's answer inside a predictBatchResponse. Error is set
// (and the prediction fields zero) when that job's feature row was invalid
// or every fallback tier refused — one bad job never fails the batch.
type batchItem struct {
	Long    bool    `json:"long"`
	Prob    float64 `json:"prob"`
	Minutes float64 `json:"minutes,omitempty"`
	Message string  `json:"message,omitempty"`
	Tier    string  `json:"tier,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// predictBatchResponse is the /predict/batch payload. The snapshot is
// resolved once for the whole batch, so Source (always "live", as on
// predictResponse) and Pending/Running are batch-level; Results is
// index-aligned with the request's Jobs.
type predictBatchResponse struct {
	At      int64       `json:"at"`
	Source  string      `json:"snapshot_source"`
	Pending int         `json:"pending_in_snapshot"`
	Running int         `json:"running_in_snapshot"`
	Results []batchItem `json:"results"`
	// ModelVersion/ModelID attribute the whole batch to one serving
	// bundle — the batch runs against a single bundle load, so no item
	// can straddle a hot-swap.
	ModelVersion int    `json:"model_version"`
	ModelID      string `json:"model_id,omitempty"`
	// cutoff words each answered item's message, as on predictResponse;
	// items with an Error carry none.
	cutoff float64
}

// withMessages spells out v's messages in each answered item's Message.
// The items are rewritten in place.
func (v predictBatchResponse) withMessages() predictBatchResponse {
	for i := range v.Results {
		if it := &v.Results[i]; it.Error == "" {
			it.Message = core.Prediction{Long: it.Long, Minutes: it.Minutes}.Message(v.cutoff)
		}
	}
	return v
}

func (s *Service) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	a := getArena()
	defer putArena(a)
	rb := getRespBuf()
	defer putRespBuf(rb)
	names := s.serving.Load().partitions
	req := &a.batch
	if !readPredictBody(w, r, rb, func(body []byte, req *predictBatchRequest) bool {
		return decodePredictBatchRequest(body, req, a.jobs, names)
	}, req) {
		return
	}
	a.jobs = req.Jobs
	root := obs.TraceFrom(r.Context()).Root()
	snaps := s.resolveWhatIf(w, root, a, req.At, false)
	if snaps == nil {
		return
	}
	s.batchSize.Observe(float64(len(req.Jobs)))

	sb, results := s.serve(a, snaps, root)
	a.items = resize(a.items, len(results))
	for i, res := range results {
		if res.Err != nil {
			a.items[i] = batchItem{Error: res.Err.Error()}
			continue
		}
		a.items[i] = batchItem{Long: res.Long, Prob: res.Prob, Minutes: res.Minutes, Tier: res.Tier}
	}
	s.writePredictBatchResponse(w, r, &predictBatchResponse{
		At: req.At, Source: sourceLive,
		Pending: len(snaps[0].Pending), Running: len(snaps[0].Running),
		Results:      a.items,
		ModelVersion: sb.version, ModelID: sb.b.Fingerprint,
		cutoff: sb.b.Model.Cfg.CutoffMinutes,
	})
}

// stateResponse is the POST /state payload, reporting how the tolerant
// ingestion went and what the bulk load seeded into the live engine.
type stateResponse struct {
	Jobs    int `json:"jobs"`
	Skipped int `json:"skipped_rows,omitempty"`
	// LiveActive/LiveHistory report the livestate seed: active
	// (pending/running/submitted) jobs and retained history records.
	LiveActive  int `json:"live_active"`
	LiveHistory int `json:"live_history"`
}

func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	tr, rep, err := trace.ReadJSONLTolerant(r.Body, s.cfg.MaxBadStateRows)
	if err != nil {
		resilience.WriteError(w, resilience.BodyErrorStatus(err), fmt.Sprintf("state: %v", err))
		return
	}
	// The reseed is the upload's linearization point: it replaces the
	// engine state under the engine lock, which drops the engine's queue
	// memo with it. Requests racing the upload serve either the complete
	// old state or the complete new one.
	seed, err := s.live.Seed(tr)
	if err != nil {
		// The engine already holds the new state; a failed checkpoint is
		// degraded durability, not a failed upload.
		if s.logf != nil {
			s.logf("state: live seed checkpoint: %v", err)
		}
	}
	s.writeJSON(w, r, http.StatusOK, stateResponse{
		Jobs: len(tr.Jobs), Skipped: rep.Skipped,
		LiveActive: seed.Active, LiveHistory: seed.History,
	})
}

// eventsResponse is the POST /events payload: how the JSONL event stream
// was absorbed. Applied events mutated the engine; rejected ones were
// well-formed but refused (duplicate, unknown job, stale order); bad lines
// failed to decode within the malformed-row budget.
type eventsResponse struct {
	Applied  int   `json:"applied"`
	Rejected int   `json:"rejected,omitempty"`
	BadLines int   `json:"bad_lines,omitempty"`
	Now      int64 `json:"now"`
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	sc := bufio.NewScanner(r.Body)
	// A 64 KiB start would do (the scanner grows on demand up to the 4 MiB
	// line cap) and saves a megabyte of zeroed garbage per request, but the
	// in-process quick pass in bench/ only holds with it: see ROADMAP item 1.
	sc.Buffer(make([]byte, 1<<20), 4<<20)
	var resp eventsResponse
	var failCode int
	var failMsg string
	budget := s.cfg.MaxBadStateRows
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimLeft(line, " \t\r\n")) == 0 {
			continue // blank, as on POST /state: not a bad line
		}
		ev, err := livestate.DecodeEvent(line)
		if err != nil {
			resp.BadLines++
			if budget >= 0 && resp.BadLines > budget {
				failCode = http.StatusBadRequest
				failMsg = fmt.Sprintf("events: more than %d undecodable lines (last: %v)", budget, err)
				break
			}
			continue
		}
		if err := s.live.Apply(ev); err != nil {
			resp.Rejected++
			continue
		}
		resp.Applied++
	}
	if err := sc.Err(); err != nil {
		failCode, failMsg = resilience.BodyErrorStatus(err), fmt.Sprintf("events: %v", err)
	}
	// The body's one commit point: Apply only buffers, so fsync before any
	// reply. A 200 means every applied event is durable, and the prefix a
	// refused body (400, 413, timeout) left in the engine is on disk too —
	// a crash can only lose lines that were never applied.
	if err := s.live.Sync(); err != nil {
		resilience.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("events: wal sync: %v", err))
		return
	}
	if failCode != 0 {
		resilience.WriteError(w, failCode, failMsg)
		return
	}
	resp.Now = s.live.Engine().Now()
	s.writeJSON(w, r, http.StatusOK, resp)
}

func (s *Service) handleFeatures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		resilience.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	jobID, err := parseJobID(r)
	if err != nil {
		resilience.WriteError(w, http.StatusBadRequest, fmt.Sprintf("features: %v", err))
		return
	}
	snap, err := s.live.Engine().SnapshotForJob(jobID)
	if err != nil {
		resilience.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	row, err := s.serving.Load().b.FeatureRow(snap)
	if err != nil {
		resilience.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	out := make(map[string]float64, len(row))
	for i, v := range row {
		out[FeatureNames[i]] = v
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// jsonContentType is the Content-Type value every writeBody reply shares.
// Its capacity is 1, so a writer that appends to the header's values gets
// a copy; none writes into it in place, and net/http sends a clone of the
// header the handler built.
var jsonContentType = []string{"application/json"}

// writeBody commits a fully-marshaled JSON body: Content-Length is exact,
// so clients never see a truncated-but-200 response.
func writeBody(w http.ResponseWriter, code int, b []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// writeJSON marshals v into a pooled buffer before touching the response.
// The old package-level helper encoded straight onto the wire, which meant
// an encode failure was discovered after the 200 and headers were already
// committed — the error was unreportable and silently dropped. Buffering
// first turns that into a logged, structured 500 and sets Content-Length.
func (s *Service) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	rb := getRespBuf()
	defer putRespBuf(rb)
	buf := bytes.NewBuffer(rb.b[:0])
	err := json.NewEncoder(buf).Encode(v)
	rb.b = buf.Bytes()
	if err != nil {
		if s.logger != nil {
			s.logger.Error("response encode failed",
				slog.String("path", r.URL.Path),
				slog.String("trace_id", obs.TraceFrom(r.Context()).TraceID()),
				slog.String("error", err.Error()))
		}
		resilience.WriteError(w, http.StatusInternalServerError,
			fmt.Sprintf("encode response: %v", err))
		return
	}
	writeBody(w, code, rb.b)
}

// writePredictResponse writes a /predict 200 through the zero-alloc
// encoder; values the fast encoder refuses (non-finite floats) fall back
// to the stdlib path and inherit its error handling.
func (s *Service) writePredictResponse(w http.ResponseWriter, r *http.Request, v *predictResponse) {
	rb := getRespBuf()
	defer putRespBuf(rb)
	b, ok := encodePredictResponse(rb.b[:0], v)
	rb.b = b[:0]
	if !ok {
		s.writeJSON(w, r, http.StatusOK, v.withMessage())
		return
	}
	writeBody(w, http.StatusOK, b)
}

// writePredictBatchResponse is writePredictResponse for /predict/batch.
func (s *Service) writePredictBatchResponse(w http.ResponseWriter, r *http.Request, v *predictBatchResponse) {
	rb := getRespBuf()
	defer putRespBuf(rb)
	b, ok := encodePredictBatchResponse(rb.b[:0], v)
	rb.b = b[:0]
	if !ok {
		s.writeJSON(w, r, http.StatusOK, v.withMessages())
		return
	}
	writeBody(w, http.StatusOK, b)
}
