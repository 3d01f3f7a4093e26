// Package pool provides the bounded worker pool behind AutoPilot's parallel
// stages. Every fan-out in the pipeline funnels through Run: the Phase-1
// training sweep (one item per policy), the validation rollouts and the
// Bayesian optimizer's candidate screen (one item per worker, each working
// through its own share), and every Phase-2 evaluation batch (one item per
// design). Run guarantees:
//
//   - bounded concurrency (default runtime.NumCPU());
//   - indices handed out once each, in increasing order, so a caller that
//     writes slot i of its own slices from item i sees exactly what a
//     sequential run would have produced;
//   - deterministic fail-fast: once an item fails no further index is handed
//     out, items already handed out finish, and the lowest-index failure is
//     returned — the same error at every worker count;
//   - a prompt stop on context cancellation, returning an error that wraps
//     ctx.Err();
//   - panic isolation: a panic is recovered into a typed *fault.PanicError
//     carrying the stack and item index, so a crashing job becomes an error
//     — never a process death that discards the batch.
//
// Run never cancels an item in flight: an item sees cancellation only
// through the caller's own context. A caller that must survive per-item
// failures records them in its own slices and returns nil from the item.
//
// When the context carries an obs.Observer the pool reports per-batch
// telemetry — completed jobs, recovered panics, and per-worker busy/idle
// time — under the pool.* instruments; without one, no clocks are read.
//
// Work functions must be deterministic in their index alone (derive any
// seeds from item identity, never from goroutine or completion order) for
// the bitwise-determinism guarantee to hold across worker counts.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// Workers resolves a requested worker count: values <= 0 select
// runtime.NumCPU().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// metrics are the pool's per-batch instruments, resolved once per Run call
// from the context's observer. The zero value (no observer) no-ops and skips
// the clock reads entirely, keeping the uninstrumented fan-out path free of
// timing overhead.
type metrics struct {
	jobs   *obs.Counter // completed work items
	panics *obs.Counter // worker panics recovered into errors
	busyNS *obs.Counter // worker time spent inside fn
	idleNS *obs.Counter // worker time spent waiting for items
	on     bool
}

// poolMetrics resolves the pool instruments carried by ctx.
func poolMetrics(ctx context.Context) metrics {
	o := obs.FromContext(ctx)
	if o == nil || o.Metrics == nil {
		return metrics{}
	}
	return metrics{
		jobs:   o.Counter("pool.jobs"),
		panics: o.Counter("pool.panics"),
		busyNS: o.Counter("pool.busy_ns"),
		idleNS: o.Counter("pool.idle_ns"),
		on:     true,
	}
}

// lap adds the time since t to c and returns the current time; with no
// observer it reads no clock and returns t.
func (m metrics) lap(c *obs.Counter, t time.Time) time.Time {
	if !m.on {
		return t
	}
	now := time.Now()
	c.Add(now.Sub(t).Nanoseconds())
	return now
}

// call runs item i with panic isolation: a panic is recovered into a
// *fault.PanicError recording the index and stack.
func (m metrics) call(i int, fn func(int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			m.panics.Inc()
			err = fmt.Errorf("pool: item %d panicked: %w",
				i, &fault.PanicError{Value: v, Stack: debug.Stack(), Index: i})
		}
	}()
	return fn(i)
}

// Run calls fn(i) for every i in [0, n) on at most workers goroutines (<= 0
// means runtime.NumCPU()); with one worker the items run on the caller's
// goroutine. Indices are handed out in increasing order. Once an item fails
// (a panic counts, as a *fault.PanicError), no further index is handed out,
// the items already handed out finish, and Run returns the lowest-index
// failure. Every index below it was handed out before it, so that error is
// the same at every worker count. If ctx is cancelled, no further index is
// handed out and the returned error wraps ctx.Err().
func Run(ctx context.Context, workers, n int, fn func(i int) error) error {
	workers = min(Workers(workers), n)
	m := poolMetrics(ctx)
	// stop ends the hand-out; items never see it.
	stop, halt := context.WithCancel(ctx)
	defer halt()
	var (
		mu     sync.Mutex // orders the writes of lowest and first
		lowest atomic.Int64
		first  error // the error of item lowest
	)
	lowest.Store(int64(n))
	// work is the one worker loop: it runs the indices next hands it until
	// they run out, ctx is cancelled, or an item fails. An index above a
	// failure already recorded is not run; one below it was handed out
	// before that failure, so it still runs and may lower it.
	work := func(next func() (int, bool)) {
		var t time.Time // start of the worker's current idle or busy stretch
		if m.on {
			t = time.Now()
		}
		for {
			i, ok := next()
			if !ok || ctx.Err() != nil || int64(i) > lowest.Load() {
				return
			}
			t = m.lap(m.idleNS, t)
			err := m.call(i, fn)
			t = m.lap(m.busyNS, t)
			m.jobs.Inc()
			if err != nil {
				mu.Lock()
				if int64(i) < lowest.Load() {
					lowest.Store(int64(i))
					first = err
				}
				mu.Unlock()
				halt()
				return
			}
		}
	}
	if workers == 1 {
		i := -1
		work(func() (int, bool) { i++; return i, i < n })
		return finish(ctx, first)
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(func() (int, bool) { i, ok := <-idx; return i, ok })
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-stop.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return finish(ctx, first)
}

// finish resolves Run's terminal error: when an item failed *and* the
// parent context was cancelled, the item's error wins (it is the root
// cause — cancellation may merely be its consequence) but the context error
// is attached so errors.Is(err, context.Canceled) still reports correctly.
func finish(ctx context.Context, first error) error {
	ctxErr := ctx.Err()
	if first != nil {
		if ctxErr != nil && !errors.Is(first, ctxErr) {
			return fmt.Errorf("%w (context also cancelled: %w)", first, ctxErr)
		}
		return first
	}
	if ctxErr != nil {
		return fmt.Errorf("pool: cancelled: %w", ctxErr)
	}
	return nil
}
