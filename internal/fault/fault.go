// Package fault is AutoPilot's fault-tolerance layer. The three-phase
// pipeline is a long-running search — thousands of training jobs and
// design-point evaluations fan out through internal/pool over hours of
// simulator and accelerator-model time — and without this layer a single
// panicking worker, NaN-poisoned loss, or truncated checkpoint discards all
// completed work. The package provides the four primitives the execution
// stack (pool, train, dse) threads through:
//
//   - panic isolation: Call converts a panic into a typed *PanicError
//     carrying the recovered value and stack, so a crashing job becomes an
//     ordinary error instead of a process death;
//   - deterministic retry: Retry re-runs a job under a Policy (attempt
//     budget, capped exponential backoff, per-attempt timeout), handing each
//     attempt its index so seeds can be re-derived reproducibly
//     (AttemptSeed);
//   - numerical guardrails: CheckFinite converts silent NaN/Inf poison in
//     losses, gradients, and objectives into retryable typed errors;
//   - failure records: a Failure captures the job identity, attempt count,
//     and classified cause of a terminally failed job, so sweeps degrade
//     gracefully — they complete with a failure report instead of aborting.
//
// Everything here is deterministic: backoff schedules, attempt-derived
// seeds, and the Injector's fault decisions depend only on seeds and job
// identities, never on wall-clock time or scheduling, preserving the
// pipeline's bitwise workers=1 vs workers=N contract.
package fault

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"

	"autopilot/internal/obs"
)

// Kind classifies a failure cause — the taxonomy failure reports and retry
// decisions are built on.
type Kind int

// Failure kinds.
const (
	// KindError is an ordinary error return.
	KindError Kind = iota
	// KindPanic is a recovered worker panic.
	KindPanic
	// KindNumerical is a NaN/Inf guardrail trip.
	KindNumerical
	// KindTimeout is a per-job timeout expiry.
	KindTimeout
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindNumerical:
		return "numerical"
	case KindTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PanicError is a worker panic converted into an error: the recovered value,
// the goroutine stack at the point of the panic, and the batch index of the
// item whose job crashed (-1 when unknown).
type PanicError struct {
	Value any
	Stack []byte
	Index int
}

// Error renders the panic value; the stack is preserved separately so logs
// can include it without every wrapped message exploding.
func (e *PanicError) Error() string {
	return fmt.Sprintf("fault: panic: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Call runs fn with panic isolation: a panic inside fn is recovered and
// returned as a *PanicError instead of unwinding the caller.
func Call(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack(), Index: -1}
		}
	}()
	return fn()
}

// NumericalError reports a non-finite value caught by CheckFinite.
type NumericalError struct {
	Label string  // what was being checked ("validated success rate", ...)
	Index int     // position within the checked values
	Value float64 // the offending NaN or ±Inf
}

// Error renders the guardrail trip.
func (e *NumericalError) Error() string {
	return fmt.Sprintf("fault: non-finite %s (value %d is %v)", e.Label, e.Index, e.Value)
}

// CheckFinite returns a *NumericalError for the first NaN or ±Inf among
// vals, converting silent numerical poison into a typed, retryable error.
func CheckFinite(label string, vals ...float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &NumericalError{Label: label, Index: i, Value: v}
		}
	}
	return nil
}

// TimeoutError reports that one attempt of a job exceeded its time budget.
type TimeoutError struct {
	Err error // the underlying context error
}

// Error renders the timeout.
func (e *TimeoutError) Error() string { return "fault: job timed out" }

// Unwrap exposes the underlying context error.
func (e *TimeoutError) Unwrap() error { return e.Err }

// Classify maps an error onto the failure taxonomy.
func Classify(err error) Kind {
	var pe *PanicError
	var ne *NumericalError
	var te *TimeoutError
	switch {
	case errors.As(err, &ne):
		return KindNumerical
	case errors.As(err, &pe):
		return KindPanic
	case errors.As(err, &te):
		return KindTimeout
	default:
		return KindError
	}
}

// Failure is the record a degraded sweep keeps for one terminally failed
// job: its identity, how many attempts were spent, and the classified cause.
// The cause is stored rendered so records serialize cleanly into reports and
// checkpoints.
type Failure struct {
	Job      string `json:"job"`
	Attempts int    `json:"attempts"`
	Kind     Kind   `json:"kind"`
	Cause    string `json:"cause"`
}

// NewFailure builds the failure record for a job's terminal error,
// unwrapping retry bookkeeping to find the attempt count and root cause.
func NewFailure(job string, err error) Failure {
	f := Failure{Job: job, Attempts: 1}
	var re *RetryError
	if errors.As(err, &re) {
		f.Attempts = re.Attempts
		err = re.Last
	}
	f.Kind = Classify(err)
	if err != nil {
		f.Cause = err.Error()
	}
	return f
}

// String renders one failure record.
func (f Failure) String() string {
	return fmt.Sprintf("%s: %s after %d attempt(s): %s", f.Job, f.Kind, f.Attempts, f.Cause)
}

// Records converts failure records into the obs manifest representation, so
// CLIs can fold a degraded sweep's failure summary into the run manifest.
func Records(failures []Failure) []obs.FailureRecord {
	if len(failures) == 0 {
		return nil
	}
	out := make([]obs.FailureRecord, len(failures))
	for i, f := range failures {
		out[i] = obs.FailureRecord{Job: f.Job, Kind: f.Kind.String(), Attempts: f.Attempts, Cause: f.Cause}
	}
	return out
}

// CheckBudget is the failure-budget rule both phases share: it returns nil
// when no job failed or len(failures) of attempted jobs is at most the
// budget fraction, and otherwise an error counting the failed jobs, named by
// what, followed by their Summarize report.
func CheckBudget(failures []Failure, attempted int, budget float64, what string) error {
	if len(failures) == 0 {
		return nil
	}
	frac := float64(len(failures)) / float64(attempted)
	if frac <= budget {
		return nil
	}
	return fmt.Errorf("%d/%d %s failed (%.0f%% > budget %.0f%%)\n%s",
		len(failures), attempted, what, frac*100, budget*100, Summarize(failures))
}

// Summarize renders a compact multi-line failure report, grouped by kind,
// for CLI output. It returns "" when there are no failures.
func Summarize(failures []Failure) string {
	if len(failures) == 0 {
		return ""
	}
	byKind := map[Kind]int{}
	for _, f := range failures {
		byKind[f.Kind]++
	}
	kinds := make([]Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%d job(s) failed (", len(failures))
	for i, k := range kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d %s", byKind[k], k)
	}
	b.WriteString("):")
	for _, f := range failures {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}
