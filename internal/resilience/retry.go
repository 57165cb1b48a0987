package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// Policy shapes a Retry loop: exponential backoff, doubling from
// InitialInterval up to MaxInterval. The zero value backs off 100ms → 10s.
// Retry sleeps a uniform draw from the upper half of each step's ceiling,
// so clients that failed together (followers of a restarted leader) do
// not retry in lockstep.
type Policy struct {
	// InitialInterval is the first backoff sleep. 0 means 100ms.
	InitialInterval time.Duration
	// MaxInterval caps the backoff sleep. 0 means 10s.
	MaxInterval time.Duration
	// OnRetry, when set, observes every failed attempt before its backoff
	// sleep — the metrics/logging hook.
	OnRetry func(attempt int, err error, sleep time.Duration)
}

func (p Policy) withDefaults() Policy {
	if p.InitialInterval == 0 {
		p.InitialInterval = 100 * time.Millisecond
	}
	if p.MaxInterval == 0 {
		p.MaxInterval = 10 * time.Second
	}
	return p
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

// Sleep computes the ceiling of the attempt-th backoff sleep (attempt
// counts from 1): min(InitialInterval*2^(attempt-1), MaxInterval). Retry
// sleeps a uniform draw in [Sleep/2, Sleep].
func (p Policy) Sleep(attempt int) time.Duration {
	p = p.withDefaults()
	return p.sleep(attempt)
}

func (p Policy) sleep(attempt int) time.Duration {
	ceiling := float64(p.InitialInterval)
	for i := 1; i < attempt && ceiling < float64(p.MaxInterval); i++ {
		ceiling *= 2
	}
	return time.Duration(min(ceiling, float64(p.MaxInterval)))
}

// jitter draws a sleep uniformly from [ceiling/2, ceiling].
func jitter(ceiling time.Duration) time.Duration {
	if ceiling <= 0 {
		return 0
	}
	half := ceiling / 2
	return half + rand.N(ceiling-half+1)
}

// Retry runs fn until it succeeds, the error is Permanent, or ctx is
// canceled (including mid-sleep). The context is passed through to fn;
// the returned error is nil, the Permanent error, or ctx.Err().
func Retry(ctx context.Context, p Policy, fn func(ctx context.Context) error) error {
	p = p.withDefaults()
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
		sleep := jitter(p.sleep(attempt))
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
