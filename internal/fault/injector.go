package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// ErrInjected is the sentinel cause of every injector-produced error; chaos
// tests assert on it with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Injection is the fault an Injector decided to apply to one job key.
type Injection int

// Injection decisions, in precedence order (a key draws once; the stacked
// rate thresholds pick at most one fault).
const (
	InjectNone Injection = iota
	InjectPanic
	InjectError
	InjectNaN
	InjectDelay

	// Network fault classes, drawn per RPC key by distributed-execution
	// transports (internal/grid). They corrupt delivery, never payloads, so
	// surviving results stay bitwise-comparable.

	// InjectDrop loses the RPC: the request is never delivered and the
	// caller sees a transport error.
	InjectDrop
	// InjectDup delivers the RPC twice, exercising receiver-side
	// deduplication.
	InjectDup
	// InjectStale re-delivers the payload tagged with an earlier attempt
	// rank alongside the real delivery, exercising attempt arbitration.
	InjectStale
)

// Injector deterministically injects faults into jobs for chaos testing:
// whether a given job key draws a panic, an error, a NaN poison, or a delay
// is a pure function of (Seed, key), never of scheduling — so an injected
// sweep fails the same jobs at workers=1 and workers=8, and the surviving
// results stay bitwise comparable. Include the retry attempt in the key
// (e.g. "job#1") when a fault should clear on retry.
//
// A nil *Injector is valid and injects nothing, so call sites can thread an
// optional injector without nil checks.
type Injector struct {
	// Seed drives every decision.
	Seed int64
	// PanicRate, ErrorRate, NaNRate and DelayRate are stacked probabilities
	// in [0,1]; their sum is the total fault rate.
	PanicRate, ErrorRate, NaNRate, DelayRate float64
	// DropRate, DupRate and StaleRate stack after the job-fault rates and
	// drive the network fault classes RPC transports consult (drop, delayed
	// delivery shares DelayRate, duplicate delivery, stale-attempt
	// re-delivery). Zero rates leave every legacy (Seed, key) decision
	// bitwise unchanged.
	DropRate, DupRate, StaleRate float64
	// Delay is slept on InjectDelay hits before the wrapped work runs.
	Delay time.Duration
}

// uniform maps (Seed, key) to a uniform draw in [0,1) via FNV-1a with a
// splitmix64 finalizer.
func (in *Injector) uniform(key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", in.Seed, key)
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Decide returns the (deterministic) fault for a job key.
func (in *Injector) Decide(key string) Injection {
	if in == nil {
		return InjectNone
	}
	u := in.uniform(key)
	for _, c := range []struct {
		rate float64
		inj  Injection
	}{
		{in.PanicRate, InjectPanic},
		{in.ErrorRate, InjectError},
		{in.NaNRate, InjectNaN},
		{in.DelayRate, InjectDelay},
		// Network classes stack strictly after the legacy job classes, so
		// enabling them never re-rolls an existing chaos suite's decisions.
		{in.DropRate, InjectDrop},
		{in.DupRate, InjectDup},
		{in.StaleRate, InjectStale},
	} {
		if u < c.rate {
			return c.inj
		}
		u -= c.rate
	}
	return InjectNone
}

// RPC runs one remote call under the key's network-fault decision: InjectDrop
// fails the call with a wrapped ErrInjected before send is invoked (the
// request is "lost on the wire"), InjectDelay sleeps Delay first, InjectDup
// invokes send twice (both deliveries must be idempotent at the receiver;
// the second result is discarded), and every other decision — including the
// job-fault classes, which belong to job keys, not RPC keys — passes through
// untouched. InjectStale is reported to the caller via StaleRPC, because only
// the transport knows how to forge a stale-attempt re-delivery.
func (in *Injector) RPC(key string, send func() error) error {
	switch in.Decide(key) {
	case InjectDrop:
		return fmt.Errorf("%w rpc drop (%s)", ErrInjected, key)
	case InjectDelay:
		time.Sleep(in.Delay)
	case InjectDup:
		if err := send(); err != nil {
			return err
		}
	}
	return send()
}

// StaleRPC reports whether the key draws a stale-attempt re-delivery; the
// transport is responsible for forging the extra delivery.
func (in *Injector) StaleRPC(key string) bool {
	return in.Decide(key) == InjectStale
}

// Invoke runs fn under the key's injection decision: InjectPanic panics
// before fn runs, InjectError returns a wrapped ErrInjected, InjectDelay
// sleeps Delay then runs fn, and InjectNone/InjectNaN run fn untouched
// (NaN poisoning applies to values, via Value). Panics escape Invoke —
// isolation is the caller's (Retry's) job, exactly as with a real crashing
// worker.
func (in *Injector) Invoke(key string, fn func() error) error {
	switch in.Decide(key) {
	case InjectPanic:
		panic(fmt.Sprintf("fault: injected panic (%s)", key))
	case InjectError:
		return fmt.Errorf("%w error (%s)", ErrInjected, key)
	case InjectDelay:
		time.Sleep(in.Delay)
	}
	return fn()
}

// Value poisons v with NaN when the key drew InjectNaN, and returns it
// untouched otherwise — the hook numerical guardrails are tested through.
func (in *Injector) Value(key string, v float64) float64 {
	if in.Decide(key) == InjectNaN {
		return math.NaN()
	}
	return v
}
