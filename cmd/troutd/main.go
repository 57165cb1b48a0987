// Command troutd serves queue-time predictions over HTTP — the paper's §V
// plan to "integrate this into a user dashboard tool". It loads a trained
// bundle and an initial queue state, then answers Algorithm 1 queries
// through the bundle's fallback chain (NN → GBDT baseline → partition
// median), so a corrupted model degrades answers instead of availability.
//
//	troutd -bundle trout.bundle -state trace.csv -addr :8642 -wal-dir /var/lib/troutd
//
//	curl localhost:8642/health
//	curl localhost:8642/ready
//	curl localhost:8642/predict?job=4211
//	curl -X POST localhost:8642/predict -d '{"at":1700500000,"job":{"user":7,
//	     "partition":"shared","req_cpus":16,"req_mem_gb":32,"req_nodes":1,
//	     "time_limit":14400}}'
//	curl -X POST localhost:8642/predict/batch -d '{"at":1700500000,"jobs":[
//	     {"user":7,"partition":"shared","req_cpus":16},
//	     {"user":9,"partition":"gpu","req_gpus":2}]}'
//	curl -X POST localhost:8642/events --data-binary @events.jsonl
//	curl localhost:8642/metrics
//
// Live queue state is event-sourced: POST /events feeds scheduler
// lifecycle events into the indexed livestate engine, and -wal-dir makes
// that state durable — every event is WAL-logged before apply, checkpoints
// run every -checkpoint-interval, and a restart recovers checkpoint + WAL
// tail, so mid-stream crashes lose nothing that reached disk.
//
// Read-scale replication: a -wal-dir leader serves its log on
// /replication/wal, and `troutd -follow http://leader:8642` runs a
// follower that replays it into its own engine, answers /predict from the
// replica, and reverse-proxies /events and /state to the leader. A
// follower reports 503 on /ready until first catch-up and whenever lag
// crosses -replication-lag-events; leader ingest sheds bursts with 429 +
// Retry-After past the -admit-* bounds.
//
// All daemon output is structured (log/slog): -log-format selects json
// (default, machine-shippable) or text, -log-level sets the threshold.
// Every request carries a trace ID (accepted via X-Request-ID or
// generated) that appears in the access log, the response header, and the
// per-stage span records.
//
// -pprof localhost:6060 exposes net/http/pprof (CPU, heap, goroutine
// profiles) on a separate listener, keeping the debug surface off the
// service address.
//
// SIGINT/SIGTERM mark /ready unavailable and drain in-flight requests for
// up to 15 s before exiting; a final checkpoint makes the next
// boot replay-free.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/resilience"
	"repro/internal/trace"
)

const (
	// idleTimeout closes keep-alive connections nothing has used.
	idleTimeout = 2 * time.Minute
	// maxBadRows is the malformed-record budget for the -state file, the
	// same 100 the service allows a POST /state upload.
	maxBadRows = 100
	// shutdownGrace is the drain window after SIGINT/SIGTERM.
	shutdownGrace = 15 * time.Second
)

func main() {
	var (
		bundlePath = flag.String("bundle", "trout.bundle", "trained bundle")
		statePath  = flag.String("state", "", "initial queue state (csv/jsonl trace)")
		addr       = flag.String("addr", ":8642", "listen address")

		requestTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request deadline (504 past it)")
		maxBody        = flag.Int64("max-body", 8<<20, "maximum POST body bytes (413 past it)")
		maxBatch       = flag.Int("max-batch", 256, "maximum jobs per /predict/batch request (-1 = unlimited)")

		walDir    = flag.String("wal-dir", "", "live-state durability directory (WAL + checkpoints); empty = memory-only")
		ckptEvery = flag.Duration("checkpoint-interval", 5*time.Minute, "periodic live-state checkpoint cadence (0 disables)")

		follow  = flag.String("follow", "", "follower mode: replicate live state from this leader troutd URL (e.g. http://leader:8642); /events and /state are reverse-proxied to it")
		replLag = flag.Uint64("replication-lag-events", 4096, "follower: /ready turns 503 and /health degraded past this many events of lag")

		registryDir   = flag.String("registry-dir", "", "model registry directory; enables the continual-learning control plane (drift-triggered retrain, holdout judge, hot-swap)")
		retrainDrift  = flag.Float64("retrain-drift", 0.15, "absolute online calibration drift that triggers a retrain (-1 disables the drift trigger)")
		retrainMAE    = flag.Float64("retrain-mae", 0, "online MAE (minutes) that triggers a retrain (0 disables)")
		retrainWindow = flag.Int("retrain-min-window", 64, "joined online outcomes required before drift triggers fire")
		retrainEvery  = flag.Duration("retrain-interval", 30*time.Minute, "minimum spacing between automatic retrains (manual POST /admin/retrain bypasses it)")

		admitInflight = flag.Int("admit-inflight", 16, "concurrent ingest requests admitted on /events and /state (-1 disables admission control)")
		admitQueue    = flag.Int("admit-queue", 64, "ingest requests allowed to queue for an admission slot; beyond it requests shed with 429 (as does one queued for over 1s)")

		tracing   = flag.Bool("tracing", true, "hierarchical request tracing (span trees, flight recorder, tail-sampled export)")
		traceFile = flag.String("trace-file", "", "tail-sampled trace export JSONL file (errored, over-250ms and 1% of other traces; rotated at 64 MiB, 4 files kept); empty keeps tracing in-memory only (/debug/requests still works)")

		sloAvail     = flag.Float64("slo-availability", 0.999, "availability SLO target (fraction of non-5xx responses); negative disables SLO tracking")
		sloLatFrac   = flag.Float64("slo-latency-target", 0.99, "latency SLO target (fraction of requests under -slo-latency-threshold)")
		sloLatThresh = flag.Duration("slo-latency-threshold", 500*time.Millisecond, "latency SLO objective bound")

		logLevel  = flag.String("log-level", "info", "log threshold: debug|info|warn|error")
		logFormat = flag.String("log-format", "json", "log encoding: json|text")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "troutd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	b, err := trout.LoadBundleFile(*bundlePath)
	if err != nil {
		fatal("load bundle", err)
	}
	tr, err := loadState(logger, *statePath)
	if err != nil {
		fatal("load state", err)
	}
	// One tracer serves the whole process: HTTP requests, WAL
	// syncs/checkpoints, retrain cycles, and follower resnapshots all land
	// in the same export file and flight recorder.
	tcfg := obs.TracerConfig{Disabled: !*tracing, Path: *traceFile}
	tracer, err := obs.NewTracer(tcfg)
	if err != nil {
		fatal("open trace exporter", err)
	}
	scfg := obs.SLOConfig{
		Disabled:           *sloAvail < 0,
		AvailabilityTarget: *sloAvail,
		LatencyTarget:      *sloLatFrac,
		LatencyThreshold:   *sloLatThresh,
	}
	store, err := livestate.OpenStore(livestate.StoreOptions{
		Dir: *walDir, Logf: obs.Logf(logger), Tracer: tracer,
	})
	if err != nil {
		fatal("open live-state store", err)
	}
	if rep := store.Recovered(); *walDir != "" {
		logger.Info("live state recovered",
			slog.String("dir", *walDir),
			slog.Uint64("checkpoint_lsn", rep.CheckpointLSN),
			slog.Uint64("replayed", rep.Replayed),
			slog.Uint64("rejected_on_replay", rep.ApplyErrors),
			slog.Int64("torn_bytes_dropped", rep.TruncatedBytes),
		)
	}
	svc, err := trout.NewServiceWith(b, tr, trout.ServiceConfig{
		RequestTimeout: *requestTimeout,
		MaxBodyBytes:   *maxBody,
		MaxBatchJobs:   *maxBatch,
		Live:           store,
		Logger:         logger,
		LeaderURL:      *follow,
		Replication:    replication.FollowerConfig{LagEvents: *replLag},
		Admission: resilience.AdmissionConfig{
			MaxInFlight: *admitInflight, MaxQueue: *admitQueue,
		},
		// The float32 kernel path; a model that cannot compile onto it
		// logs a warning and serves float64.
		FastInference: true,
		Tracer:        tracer,
		Tracing:       tcfg,
		SLO:           scfg,
	})
	if err != nil {
		fatal("build service", err)
	}

	// Control plane: only leaders retrain (a follower's replica is the
	// leader's state; two nodes retraining the same stream would race
	// promotions), but the flag is honored wherever it is set.
	var cp *trout.ControlPlane
	if *registryDir != "" {
		if *follow != "" {
			logger.Warn("control plane on a follower: retrains run against the replicated state")
		}
		cp, err = svc.AttachControlPlane(trout.ControlPlaneConfig{
			RegistryDir:    *registryDir,
			DriftThreshold: *retrainDrift,
			MAEThreshold:   *retrainMAE,
			MinWindow:      *retrainWindow,
			MinInterval:    *retrainEvery,
			Logger:         logger,
		})
		if err != nil {
			fatal("attach control plane", err)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *requestTimeout + 5*time.Second,
		IdleTimeout:       idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Follower mode: pull the leader's WAL until shutdown. /ready stays
	// 503 until the replica first catches up.
	svc.StartReplication(ctx)
	if cp != nil {
		go func() { _ = cp.Run(ctx) }()
		logger.Info("control plane running",
			slog.String("registry", *registryDir),
			slog.Float64("drift_threshold", *retrainDrift))
	}
	if *follow != "" {
		logger.Info("following leader", slog.String("leader", *follow),
			slog.Uint64("lag_threshold", *replLag))
	}
	if tracer.Enabled() && *traceFile != "" {
		logger.Info("trace export enabled", slog.String("file", *traceFile),
			slog.Duration("slow_threshold", tracer.SlowThreshold()))
	}

	// Profiling stays off the service listener: the pprof handlers are
	// registered only on their own mux bound to -pprof, so the production
	// address never exposes them and profiling traffic cannot consume
	// service connections. Shutdown is best-effort alongside the main drain.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		// Contention profiles are free unless sampled, and the serving hot
		// path is exactly where lock contention hides — so when profiling
		// is on at all, sample mutex holds and blocking events too
		// (/debug/pprof/mutex, /debug/pprof/block).
		runtime.SetMutexProfileFraction(100) // ~1% of contended mutex events
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof serve", slog.Any("error", err))
			}
		}()
	}

	// Periodic checkpoints bound WAL replay time after a crash; each one
	// compacts the log down to zero.
	if *walDir != "" && *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := store.Checkpoint(); err != nil {
						logger.Error("checkpoint", slog.Any("error", err))
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving",
		slog.String("addr", *addr),
		slog.Float64("cutoff_minutes", b.Model.Cfg.CutoffMinutes),
		slog.Int("live_tracked", store.Engine().Stats().Tracked),
	)

	select {
	case err := <-errc:
		// The listener failed outright (e.g. port in use).
		fatal("listen", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		svc.SetReady(false)
		logger.Info("signal received; draining in-flight requests",
			slog.Duration("grace", shutdownGrace))
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", slog.Any("error", err))
		}
		if pprofSrv != nil {
			if err := pprofSrv.Shutdown(sctx); err != nil {
				logger.Error("pprof shutdown", slog.Any("error", err))
			}
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", slog.Any("error", err))
		}
		// A final checkpoint makes the next boot replay-free.
		if err := store.Checkpoint(); err != nil {
			logger.Error("final checkpoint", slog.Any("error", err))
		}
		if err := store.Close(); err != nil {
			logger.Error("wal close", slog.Any("error", err))
		}
		// Drain the trace export queue so the last kept traces hit disk.
		if err := tracer.Close(); err != nil {
			logger.Error("trace export close", slog.Any("error", err))
		}
		logger.Info("drained; exiting")
	}
}

// loadState reads the initial queue state with the tolerant codecs,
// logging (rather than dying on) corrupt rows within the budget.
func loadState(logger *slog.Logger, path string) (*trout.Trace, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tr *trout.Trace
	var rep *trace.ReadReport
	if strings.HasSuffix(path, ".jsonl") {
		tr, rep, err = trace.ReadJSONLTolerant(f, maxBadRows)
	} else {
		tr, rep, err = trace.ReadCSVTolerant(f, maxBadRows)
	}
	if err != nil {
		return nil, err
	}
	if rep.Skipped > 0 {
		logger.Warn("state: skipped malformed rows",
			slog.String("path", path),
			slog.Int("skipped", rep.Skipped),
			slog.Int("first_bad_line", rep.Errors[0].Line),
			slog.String("first_error", rep.Errors[0].Err),
		)
	}
	return tr, nil
}
