package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes a Retry loop: exponential backoff with full jitter,
// bounded by attempt count and total elapsed time. The zero value is a
// production-safe default (100ms → 10s, doubling, full jitter, no caps).
type Policy struct {
	// InitialInterval is the first backoff ceiling. 0 means 100ms.
	InitialInterval time.Duration
	// MaxInterval caps the backoff ceiling. 0 means 10s.
	MaxInterval time.Duration
	// Multiplier grows the ceiling each attempt. 0 means 2.
	Multiplier float64
	// Jitter in [0,1] is the fraction of each sleep drawn uniformly at
	// random ("full jitter" at 1, deterministic at 0): the actual sleep is
	// ceiling*(1-Jitter) + rand*ceiling*Jitter. Negative means 1 (full
	// jitter, the AWS-recommended default for thundering-herd avoidance);
	// 0 keeps the raw exponential schedule.
	Jitter float64
	// MaxAttempts stops after this many calls of fn. 0 means unlimited.
	MaxAttempts int
	// MaxElapsed stops retrying once the total time since the first
	// attempt passes this. 0 means unlimited.
	MaxElapsed time.Duration
	// OnRetry, when set, observes every failed attempt before its backoff
	// sleep — the metrics/logging hook.
	OnRetry func(attempt int, err error, sleep time.Duration)
	// Rand replaces the jitter source (tests). Nil uses a seeded
	// process-global source.
	Rand func() float64
}

func (p Policy) withDefaults() Policy {
	if p.InitialInterval == 0 {
		p.InitialInterval = 100 * time.Millisecond
	}
	if p.MaxInterval == 0 {
		p.MaxInterval = 10 * time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 1
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Rand == nil {
		p.Rand = globalFloat64
	}
	return p
}

var (
	globalRandMu sync.Mutex
	globalRand   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func globalFloat64() float64 {
	globalRandMu.Lock()
	defer globalRandMu.Unlock()
	return globalRand.Float64()
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry stops immediately and returns it: the
// failure is structural (bad request, corrupt state), not transient.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) came from
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Sleep computes the attempt-th backoff sleep (attempt counts from 1) for
// deterministic policy math in tests and capacity planning: the jittered
// ceiling min(InitialInterval*Multiplier^(attempt-1), MaxInterval).
func (p Policy) Sleep(attempt int) time.Duration {
	p = p.withDefaults()
	return p.sleep(attempt)
}

func (p Policy) sleep(attempt int) time.Duration {
	ceiling := float64(p.InitialInterval)
	for i := 1; i < attempt && ceiling < float64(p.MaxInterval); i++ {
		ceiling *= p.Multiplier
	}
	ceiling = min(ceiling, float64(p.MaxInterval))
	d := ceiling*(1-p.Jitter) + p.Rand()*ceiling*p.Jitter
	return time.Duration(d)
}

// Retry runs fn until it succeeds, a cap is hit, the error is Permanent,
// or ctx is canceled (including mid-sleep). The context is passed through
// to fn; the returned error is fn's last error (wrapped with the attempt
// count when the caps end the loop) or ctx.Err() on cancellation.
func Retry(ctx context.Context, p Policy, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
	start := time.Now()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn(ctx)
		if err == nil {
			return nil
		}
		if IsPermanent(err) {
			return err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return fmt.Errorf("resilience: giving up after %d attempts: %w", attempt, err)
		}
		sleep := p.sleep(attempt)
		if p.MaxElapsed > 0 && time.Since(start)+sleep > p.MaxElapsed {
			return fmt.Errorf("resilience: giving up after %s elapsed (%d attempts): %w",
				time.Since(start).Round(time.Millisecond), attempt, err)
		}
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, sleep)
		}
		if timer == nil {
			timer = time.NewTimer(sleep)
		} else {
			timer.Reset(sleep)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
}
