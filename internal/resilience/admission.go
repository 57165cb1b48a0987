package resilience

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Admission decisions, the values OnDecision receives and the label values
// of the service's trout_admission_total counter.
const (
	AdmissionAccepted     = "accepted"
	AdmissionShedQueue    = "shed_queue_full"
	AdmissionShedTimeout  = "shed_timeout"
	AdmissionShedCanceled = "shed_canceled"
)

// AdmissionConfig bounds concurrent work on an ingest path so a burst
// load-sheds with 429s instead of piling onto the engine lock and taking
// latency (or the upstream scheduler feed) down with it. The zero value
// picks production-safe defaults; MaxInFlight < 0 disables the gate.
type AdmissionConfig struct {
	// MaxInFlight requests may run concurrently past the gate. 0 means 16;
	// negative disables admission control entirely.
	MaxInFlight int
	// MaxQueue requests may wait for a slot; arrivals beyond the watermark
	// are shed immediately. 0 means 64; negative allows no queueing.
	MaxQueue int
	// QueueTimeout sheds a queued request that cannot get a slot in time.
	// 0 means 1s.
	QueueTimeout time.Duration
	// RetryAfter is the client backoff hint on 429 responses. 0 means 1s.
	RetryAfter time.Duration
	// OnDecision, when set, observes every admission decision — the
	// metrics hook (one of the Admission* constants).
	OnDecision func(decision string)
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Admission is a bounded-concurrency gate with a queue-depth watermark.
// Disabled (nil or MaxInFlight < 0) it admits everything.
type Admission struct {
	cfg      AdmissionConfig
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
}

// NewAdmission builds the gate. A MaxInFlight < 0 config returns a gate
// that admits everything (Middleware becomes a no-op).
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInFlight < 0 {
		return &Admission{cfg: cfg}
	}
	cfg = cfg.withDefaults()
	return &Admission{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight)}
}

// InFlight returns the requests currently holding a slot.
func (a *Admission) InFlight() int64 { return a.inflight.Load() }

func (a *Admission) decide(decision string) {
	if a.cfg.OnDecision != nil {
		a.cfg.OnDecision(decision)
	}
}

// shed writes the structured 429 with the Retry-After hint.
func (a *Admission) shed(w http.ResponseWriter, why string) {
	secs := int(a.cfg.RetryAfter / time.Second)
	if a.cfg.RetryAfter%time.Second != 0 || secs == 0 {
		secs++ // Retry-After is whole seconds; round up
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	WriteError(w, http.StatusTooManyRequests, why)
}

// Middleware gates next behind the admission check: a free slot admits
// immediately; otherwise the request queues up to the watermark and
// timeout, and anything beyond either sheds with a 429 + Retry-After
// before any body processing or engine locking happens.
func (a *Admission) Middleware(next http.Handler) http.Handler {
	if a == nil || a.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case a.sem <- struct{}{}:
			// Fast path: a slot was free.
		default:
			if q := a.queued.Add(1); q > int64(a.cfg.MaxQueue) {
				a.queued.Add(-1)
				a.decide(AdmissionShedQueue)
				a.shed(w, fmt.Sprintf("ingest overloaded: %d in flight, queue full", a.inflight.Load()))
				return
			}
			t := time.NewTimer(a.cfg.QueueTimeout)
			select {
			case a.sem <- struct{}{}:
				t.Stop()
				a.queued.Add(-1)
			case <-t.C:
				a.queued.Add(-1)
				a.decide(AdmissionShedTimeout)
				a.shed(w, fmt.Sprintf("ingest overloaded: no capacity within %s", a.cfg.QueueTimeout))
				return
			case <-r.Context().Done():
				t.Stop()
				a.queued.Add(-1)
				a.decide(AdmissionShedCanceled)
				return // client gone; nothing useful to write
			}
		}
		a.inflight.Add(1)
		a.decide(AdmissionAccepted)
		defer func() {
			a.inflight.Add(-1)
			<-a.sem
		}()
		next.ServeHTTP(w, r)
	})
}
