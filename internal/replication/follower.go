package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// FollowerConfig wires a pull loop against a leader.
type FollowerConfig struct {
	// LeaderURL is the leader's base URL (scheme://host:port), no trailing
	// slash required.
	LeaderURL string
	// Store is the local replica the WAL replays into. Typically
	// memory-only or pointed at its own -wal-dir (a follower's local WAL
	// makes its own restarts cheap).
	Store *livestate.Store
	// Client overrides the HTTP client. Nil builds one with no global
	// timeout (long-polls are bounded per-request via context).
	Client *http.Client
	// Retry shapes the reconnect backoff, retried until the context ends.
	// The zero value is the resilience default (100ms → 10s).
	Retry resilience.Policy
	// PollWait is the long-poll window asked of the leader. 0 means 25s.
	PollWait time.Duration
	// LagEvents is the replication-lag threshold (in events) beyond which
	// the follower reports itself degraded / not ready. 0 means 4096.
	LagEvents uint64
	// Logger for replication lifecycle events. Nil discards.
	Logger *slog.Logger
	// Tracer, when set, records each full resnapshot as a root trace
	// (resnapshots are rare, expensive, and worth a flight-record). Nil
	// disables.
	Tracer *obs.Tracer
}

// FollowerStats is a point-in-time view of the pull loop, consumed by the
// /metrics collectors and /health.
type FollowerStats struct {
	LeaderURL      string
	LocalLSN       uint64
	LeaderLSN      uint64
	LagEvents      uint64
	LagSeconds     float64
	Gen            uint64
	CaughtUp       bool // first catch-up achieved (readiness latch)
	Fetches        uint64
	FetchErrors    uint64
	RecordsApplied uint64
	BytesApplied   uint64
	Resnapshots    uint64
	ApplyRejects   uint64 // engine-level rejections (counted, skipped)
	LastError      string
	LastContact    time.Time
}

// Follower pulls the leader's WAL into a local Store. Run drives the loop;
// Err answers readiness/health probes.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client
	log    *slog.Logger

	mu           sync.Mutex
	leaderLSN    uint64
	leaderGen    uint64
	haveGen      bool
	caughtUp     bool
	lastContact  time.Time
	lastCaughtUp time.Time
	started      time.Time
	lastErr      string

	fetches        uint64
	fetchErrors    uint64
	recordsApplied uint64
	bytesApplied   uint64
	resnapshots    uint64
	applyRejects   uint64
}

// staleAfter marks the follower degraded when the leader has not been
// reachable for this long.
const staleAfter = 30 * time.Second

// NewFollower validates cfg and builds the pull loop (not yet running).
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.LeaderURL == "" {
		return nil, errors.New("replication: follower needs a leader URL")
	}
	if cfg.Store == nil {
		return nil, errors.New("replication: follower needs a store")
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 25 * time.Second
	}
	if cfg.LagEvents == 0 {
		cfg.LagEvents = 4096
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	f := &Follower{cfg: cfg, client: client, log: cfg.Logger}
	f.started = time.Now()
	return f, nil
}

// Run pulls until ctx is canceled. Transient leader failures back off
// (resilience.Retry) and never kill the loop; Run only returns
// ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	p := f.cfg.Retry
	if p.OnRetry == nil {
		p.OnRetry = func(attempt int, err error, sleep time.Duration) {
			f.noteError(err)
			f.log.Debug("replication retry", "attempt", attempt, "sleep", sleep, "err", err)
		}
	}
	for {
		err := resilience.Retry(ctx, p, f.syncOnce)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			// Permanent errors (e.g. a corrupt snapshot) should not spin hot;
			// log, pause one backoff step, and start a fresh Retry cycle.
			f.noteError(err)
			f.log.Warn("replication sync failed; restarting pull loop", "err", err)
			t := time.NewTimer(p.Sleep(1))
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
}

func (f *Follower) noteError(err error) {
	f.mu.Lock()
	f.fetchErrors++
	f.lastErr = err.Error()
	f.mu.Unlock()
}

// syncOnce performs one WAL fetch (possibly long-polling) and applies what
// it gets. It is the unit resilience.Retry re-runs on failure.
func (f *Follower) syncOnce(ctx context.Context) error {
	f.mu.Lock()
	f.fetches++
	f.mu.Unlock()

	from := f.cfg.Store.Metrics().LSN
	// Until the first catch-up, fetch without parking: a quiet leader whose
	// state lives entirely in its checkpoint (nothing in the WAL) would
	// otherwise hold the initial fetch for the whole long-poll window before
	// the follower could even see the generation header and bootstrap.
	wait := f.cfg.PollWait
	f.mu.Lock()
	if !f.caughtUp {
		wait = 0
	}
	f.mu.Unlock()
	url := fmt.Sprintf("%s/replication/wal?from=%d&wait=%s",
		f.cfg.LeaderURL, from, wait)
	// Bound the request a comfortable margin past the long-poll window so a
	// hung leader cannot wedge the loop.
	rctx, cancel := context.WithTimeout(ctx, f.cfg.PollWait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return resilience.Permanent(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replication: fetch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	leaderLSN, _ := strconv.ParseUint(resp.Header.Get(HeaderLeaderLSN), 10, 64)
	leaderGen, genOK := parseGen(resp.Header.Get(HeaderStateGen))

	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
	case http.StatusConflict, http.StatusGone:
		// Diverged or fell behind retention: full re-snapshot.
		f.log.Info("replication: leader signalled divergence", "status", resp.StatusCode, "from", from)
		return f.resnapshot(ctx)
	default:
		return fmt.Errorf("replication: leader returned %d", resp.StatusCode)
	}

	// A state-generation mismatch means the leader's engine was replaced
	// wholesale (reseed/restore) without WAL records: replayed history is
	// void, start over from a snapshot. Comparing against the local store's
	// generation — which RestoreSnapshot keeps in lockstep with the leader —
	// also covers the first contact with a leader that was seeded before we
	// connected (its state lives in the checkpoint, not the WAL).
	if genOK && leaderGen != f.cfg.Store.Gen() {
		f.log.Info("replication: state generation changed",
			"local", f.cfg.Store.Gen(), "leader", leaderGen)
		return f.resnapshot(ctx)
	}

	if resp.StatusCode == http.StatusOK {
		if err := f.applyStream(resp.Body); err != nil {
			var gap *livestate.LSNGapError
			if errors.As(err, &gap) {
				f.log.Info("replication: LSN gap in stream", "have", gap.Have, "got", gap.Got)
				return f.resnapshot(ctx)
			}
			return err
		}
		if err := f.cfg.Store.Sync(); err != nil {
			return fmt.Errorf("replication: local sync: %w", err)
		}
	}

	f.observe(leaderLSN, leaderGen, genOK)
	return nil
}

func parseGen(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	g, err := strconv.ParseUint(s, 10, 64)
	return g, err == nil
}

// applyStream replays one WAL response body into the local store.
func (f *Follower) applyStream(r io.Reader) error {
	sc := livestate.NewWALScanner(r)
	cur := f.cfg.Store.Metrics().LSN
	var records uint64
	for {
		lsn, ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("replication: stream decode: %w", err)
		}
		if lsn <= cur {
			continue // overlap from a retried fetch; already applied
		}
		if err := f.cfg.Store.ApplyAt(lsn, ev); err != nil {
			var gap *livestate.LSNGapError
			if errors.As(err, &gap) {
				return err
			}
			// Engine-level rejection (bad event shipped by a buggy leader):
			// the record is in our WAL position now, count it and move on
			// rather than wedging replication forever.
			f.mu.Lock()
			f.applyRejects++
			f.mu.Unlock()
		}
		cur = lsn
		records++
	}
	f.mu.Lock()
	f.recordsApplied += records
	f.bytesApplied += uint64(sc.Bytes())
	f.mu.Unlock()
	return nil
}

// resnapshot pulls the full engine state and replaces the local replica.
func (f *Follower) resnapshot(ctx context.Context) (err error) {
	tb, root := f.cfg.Tracer.StartRoot("resnapshot")
	defer func() { f.cfg.Tracer.FinishRoot(tb, root, err) }()
	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet,
		f.cfg.LeaderURL+"/replication/snapshot", nil)
	if err != nil {
		return resilience.Permanent(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("replication: snapshot fetch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: snapshot fetch returned %d", resp.StatusCode)
	}
	// Counted before RestoreSnapshot publishes the new state, so whoever
	// sees the healed replica also sees the re-snapshot that healed it.
	f.mu.Lock()
	f.resnapshots++
	f.mu.Unlock()
	lsn, err := f.cfg.Store.RestoreSnapshot(resp.Body)
	if err != nil {
		f.mu.Lock()
		f.resnapshots--
		f.mu.Unlock()
		return fmt.Errorf("replication: snapshot restore: %w", err)
	}
	leaderLSN, _ := strconv.ParseUint(resp.Header.Get(HeaderLeaderLSN), 10, 64)
	gen := f.cfg.Store.Gen()

	root.SetAttrInt("lsn", int64(lsn))
	root.SetAttrInt("gen", int64(gen))

	f.mu.Lock()
	f.leaderGen = gen
	f.haveGen = true
	f.mu.Unlock()
	f.log.Info("replication: restored snapshot", "lsn", lsn, "gen", gen)
	f.observe(leaderLSN, gen, true)
	return nil
}

// observe folds a successful leader contact into the lag bookkeeping.
func (f *Follower) observe(leaderLSN, leaderGen uint64, genOK bool) {
	local := f.cfg.Store.Metrics().LSN
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lastContact = now
	f.lastErr = ""
	if genOK && !f.haveGen {
		f.leaderGen = leaderGen
		f.haveGen = true
	}
	if leaderLSN > f.leaderLSN || local >= leaderLSN {
		f.leaderLSN = leaderLSN
	}
	if local >= f.leaderLSN {
		f.caughtUp = true
		f.lastCaughtUp = now
	}
}

// Stats snapshots the pull loop for metrics and /health.
func (f *Follower) Stats() FollowerStats {
	local := f.cfg.Store.Metrics().LSN
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		LeaderURL:      f.cfg.LeaderURL,
		LocalLSN:       local,
		LeaderLSN:      f.leaderLSN,
		Gen:            f.leaderGen,
		CaughtUp:       f.caughtUp,
		Fetches:        f.fetches,
		FetchErrors:    f.fetchErrors,
		RecordsApplied: f.recordsApplied,
		BytesApplied:   f.bytesApplied,
		Resnapshots:    f.resnapshots,
		ApplyRejects:   f.applyRejects,
		LastError:      f.lastErr,
		LastContact:    f.lastContact,
	}
	if f.leaderLSN > local {
		st.LagEvents = f.leaderLSN - local
	}
	if st.LagEvents > 0 {
		since := f.lastCaughtUp
		if since.IsZero() {
			since = f.started
		}
		st.LagSeconds = time.Since(since).Seconds()
	}
	return st
}

// Err reports why the follower is not fit to serve: nil when healthy,
// otherwise the reason for /ready's 503 and /health's "degraded".
func (f *Follower) Err() error {
	st := f.Stats()
	if !st.CaughtUp {
		return errors.New("replication: initial catch-up in progress")
	}
	if st.LagEvents > f.cfg.LagEvents {
		return fmt.Errorf("replication: lag %d events exceeds threshold %d", st.LagEvents, f.cfg.LagEvents)
	}
	f.mu.Lock()
	last := f.lastContact
	f.mu.Unlock()
	if !last.IsZero() && time.Since(last) > staleAfter {
		return fmt.Errorf("replication: no leader contact for %s", time.Since(last).Round(time.Second))
	}
	return nil
}
