package fault

import (
	"context"
	"errors"
	"fmt"
	"time"

	"autopilot/internal/obs"
)

// Policy parameterizes Retry. The zero value means a single attempt with no
// timeout — wrapping a job in Retry with a zero Policy is behaviorally
// identical to calling it directly (plus panic isolation).
type Policy struct {
	// Attempts is the total attempt budget; values <= 1 mean one attempt.
	Attempts int
	// BaseDelay is the backoff after the first failed attempt; it doubles
	// per attempt, capped at MaxDelay. Zero disables backoff sleeps.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; <= 0 means uncapped.
	MaxDelay time.Duration
	// Timeout bounds each individual attempt; 0 means no per-attempt bound.
	Timeout time.Duration
	// Retryable decides whether an error is worth another attempt; nil
	// retries everything except context cancellation.
	Retryable func(error) bool
}

// DefaultPolicy returns a modest budget for transient simulator faults:
// three attempts with 10ms..1s capped exponential backoff.
func DefaultPolicy() Policy {
	return Policy{Attempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}
}

// NewPolicy is the one place a retry policy is built from an attempt budget
// and a per-attempt timeout: the zero (single-attempt) policy when attempts
// <= 1 and timeout <= 0, else DefaultPolicy's backoff schedule with both
// set.
func NewPolicy(attempts int, timeout time.Duration) Policy {
	if attempts <= 1 && timeout <= 0 {
		return Policy{}
	}
	p := DefaultPolicy()
	p.Attempts = attempts
	p.Timeout = timeout
	return p
}

// attempts resolves the attempt budget.
func (p Policy) attempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the deterministic sleep before retry attempt a (1-based
// over failures: Backoff(1) follows the first failure). The schedule is
// capped exponential with no jitter — retry timing, like everything else in
// the pipeline, must not depend on randomness drawn outside the seeds.
func (p Policy) Backoff(attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		return p.MaxDelay
	}
	return d
}

// RetryError reports that a job exhausted its attempt budget (or hit a
// non-retryable error). Last is the final attempt's error.
type RetryError struct {
	Attempts int
	Last     error
}

// Error renders the exhausted budget.
func (e *RetryError) Error() string {
	return fmt.Sprintf("fault: failed after %d attempt(s): %v", e.Attempts, e.Last)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *RetryError) Unwrap() error { return e.Last }

// AttemptSeed derives the seed for retry attempt `attempt` of a job whose
// first attempt uses base. Attempt 0 returns base unchanged — the default
// no-retry path is bitwise identical to pre-fault-layer code — and later
// attempts mix the attempt index in through a splitmix64 finalizer, so a
// retried job explores a fresh but fully reproducible random stream:
// the same (base, attempt) pair always yields the same seed, whichever
// worker executes the retry.
func AttemptSeed(base int64, attempt int) int64 {
	if attempt <= 0 {
		return base
	}
	z := uint64(base) + uint64(attempt)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// retryable resolves the policy's classifier. The default retries everything
// except context cancellation; a *TimeoutError is retryable even though it
// wraps context.DeadlineExceeded, because a per-attempt deadline (unlike the
// caller's own) is exactly the transient fault the budget exists for.
func (p Policy) retryable(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		return true
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// NonRetryable returns a copy of the policy that never retries errors
// matched by match, deferring to the original classifier otherwise. Use it to
// declare a class of errors (e.g. a typed infeasibility verdict) a definitive
// answer rather than a transient fault.
func (p Policy) NonRetryable(match func(error) bool) Policy {
	out := p
	out.Retryable = func(err error) bool {
		if match(err) {
			return false
		}
		return p.retryable(err)
	}
	return out
}

// Retry runs fn with panic isolation under the policy: up to Attempts tries,
// each bounded by Timeout, separated by the deterministic capped-exponential
// backoff. fn receives the attempt index (0-based) so it can re-derive its
// seeds via AttemptSeed, keeping retries reproducible across worker counts.
//
// A nil return from any attempt succeeds. A panic becomes a *PanicError and
// is retried like any other error. An attempt that exceeds Timeout fails
// with a *TimeoutError (retryable). When the budget is exhausted — or the
// policy declares an error non-retryable — Retry returns a *RetryError
// wrapping the last cause. Cancellation of ctx aborts immediately with an
// error satisfying errors.Is(err, ctx.Err()).
func Retry(ctx context.Context, p Policy, fn func(ctx context.Context, attempt int) error) error {
	o := obs.FromContext(ctx)
	attempts := p.attempts()
	var last error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fault: retry cancelled: %w", err)
		}
		if a > 0 {
			o.Counter("fault.retries").Inc()
		}
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
		err := Call(func() error { return fn(actx, a) })
		if cancel != nil {
			// Convert a per-attempt deadline expiry (parent still live) into
			// the typed, retryable timeout.
			if err != nil && errors.Is(actx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
				err = &TimeoutError{Err: err}
			}
			cancel()
		}
		if err == nil {
			return nil
		}
		last = err
		if o != nil {
			switch Classify(err) {
			case KindPanic:
				o.Counter("fault.panics").Inc()
			case KindTimeout:
				o.Counter("fault.timeouts").Inc()
			case KindNumerical:
				o.Counter("fault.numerical").Inc()
			}
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			return fmt.Errorf("fault: retry cancelled: %w", err)
		}
		if a == attempts-1 || !p.retryable(err) {
			return &RetryError{Attempts: a + 1, Last: err}
		}
		if d := p.Backoff(a + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				// A caller deadline (or cancellation) arriving mid-backoff is
				// terminal: return immediately — never sleep out the rest of
				// the schedule — and wrap in *RetryError so the attempt count
				// spent so far survives (AttemptsOf, failure records). The
				// cause chain keeps both the context error (errors.Is on
				// Canceled/DeadlineExceeded still holds) and the last
				// attempt's error for the report.
				return &RetryError{Attempts: a + 1, Last: fmt.Errorf(
					"fault: retry cancelled during backoff (last attempt: %v): %w", last, ctx.Err())}
			case <-t.C:
			}
		}
	}
	return &RetryError{Attempts: attempts, Last: last}
}

// AttemptsOf extracts the attempt count a job's terminal error carries; an
// error without retry bookkeeping counts as one attempt.
func AttemptsOf(err error) int {
	var re *RetryError
	if errors.As(err, &re) {
		return re.Attempts
	}
	return 1
}
