// Package pool provides the bounded worker pool behind AutoPilot's parallel
// evaluation engine. Every fan-out in the pipeline — the Phase-1 training
// sweep, the Phase-2 initial-sample batch, the Bayesian optimizer's
// candidate screen, the deterministic probe sweep and the baseline
// evaluations — funnels through Map, which guarantees:
//
//   - bounded concurrency (default runtime.NumCPU());
//   - results re-assembled in submission order, so downstream consumers
//     (Pareto extraction, hypervolume traces) see exactly the sequence a
//     sequential run would have produced;
//   - prompt drain on context cancellation, returning an error that wraps
//     ctx.Err();
//   - panic isolation: a worker panic is recovered into a typed
//     *fault.PanicError carrying the stack and item index, so a crashing job
//     becomes an error — never a process death that discards the batch.
//
// Map is fail-fast (the first error cancels the batch); MapEach isolates
// per-item failures for sweeps that degrade gracefully instead of aborting.
//
// When the context carries an obs.Observer the pool reports per-batch
// telemetry — completed jobs, recovered panics, and per-worker busy/idle
// time — under the pool.* instruments; without one, no clocks are read.
//
// Work functions must be deterministic in their input alone (derive any
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

// metrics are the pool's per-batch instruments, resolved once per Map call
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

// timed runs one item through call under the batch's instruments; with no
// observer it is exactly call.
func timed[I, O any](ctx context.Context, m metrics, i int, item I, fn func(context.Context, I) (O, error)) (O, error) {
	if !m.on {
		return call(ctx, i, item, fn)
	}
	start := time.Now()
	o, err := call(ctx, i, item, fn)
	m.busyNS.Add(time.Since(start).Nanoseconds())
	m.jobs.Inc()
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		m.panics.Inc()
	}
	return o, err
}

// call runs fn on one item with panic isolation: a panic is recovered into a
// *fault.PanicError recording the item index and stack.
func call[I, O any](ctx context.Context, i int, item I, fn func(context.Context, I) (O, error)) (o O, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("pool: item %d panicked: %w",
				i, &fault.PanicError{Value: v, Stack: debug.Stack(), Index: i})
		}
	}()
	return fn(ctx, item)
}

// finish resolves Map's terminal error: when a worker failed *and* the
// parent context was cancelled, the worker's error wins (it is the root
// cause — cancellation may merely be its consequence) but the context error
// is attached so errors.Is(err, context.Canceled) still reports correctly.
func finish(ctx context.Context, firstErr error) error {
	ctxErr := ctx.Err()
	if firstErr != nil {
		if ctxErr != nil && !errors.Is(firstErr, ctxErr) {
			return fmt.Errorf("%w (context also cancelled: %w)", firstErr, ctxErr)
		}
		return firstErr
	}
	if ctxErr != nil {
		return fmt.Errorf("pool: cancelled: %w", ctxErr)
	}
	return nil
}

// Map applies fn to every item on at most `workers` goroutines (<= 0 means
// runtime.NumCPU()) and returns the outputs in submission order. The first
// error (a worker panic counts, as a *fault.PanicError) cancels the
// remaining work, drains the pool, and is returned; if the context is
// cancelled first, the returned error wraps ctx.Err().
func Map[I, O any](ctx context.Context, workers int, items []I, fn func(context.Context, I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	if len(items) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pool: cancelled: %w", err)
		}
		return out, nil
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	m := poolMetrics(ctx)
	if workers == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("pool: cancelled: %w", err)
			}
			o, err := timed(ctx, m, i, item, fn)
			if err != nil {
				return nil, finish(ctx, err)
			}
			out[i] = o
		}
		return out, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idleStart time.Time
			if m.on {
				idleStart = time.Now()
			}
			for i := range idx {
				if m.on {
					m.idleNS.Add(time.Since(idleStart).Nanoseconds())
				}
				if wctx.Err() != nil {
					return
				}
				o, err := timed(wctx, m, i, items[i], fn)
				if m.on {
					idleStart = time.Now()
				}
				if err != nil {
					fail(err)
					return
				}
				out[i] = o // distinct slot per item: no lock needed
			}
		}()
	}
	for i := range items {
		if wctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-wctx.Done():
		}
	}
	close(idx)
	wg.Wait()

	if err := finish(ctx, firstErr); err != nil {
		return nil, err
	}
	return out, nil
}

// MapEach applies fn to every item like Map, but isolates failures instead
// of failing fast: a failing (or panicking) item records its error in the
// returned error slice and the rest of the batch keeps running. Outputs and
// errors are index-aligned with items — errs[i] == nil means out[i] is
// valid. Only context cancellation stops the batch early; the terminal
// error is non-nil exactly in that case and wraps ctx.Err(). This is the
// fan-out graceful-degradation sweeps build on.
func MapEach[I, O any](ctx context.Context, workers int, items []I, fn func(context.Context, I) (O, error)) ([]O, []error, error) {
	out := make([]O, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("pool: cancelled: %w", err)
		}
		return out, errs, nil
	}
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	m := poolMetrics(ctx)
	run := func(i int) {
		out[i], errs[i] = timed(ctx, m, i, items[i], fn)
	}
	if workers == 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, nil, fmt.Errorf("pool: cancelled: %w", err)
			}
			run(i)
		}
		return out, errs, nil
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var idleStart time.Time
			if m.on {
				idleStart = time.Now()
			}
			for i := range idx {
				if m.on {
					m.idleNS.Add(time.Since(idleStart).Nanoseconds())
				}
				if ctx.Err() != nil {
					return
				}
				run(i)
				if m.on {
					idleStart = time.Now()
				}
			}
		}()
	}
	for i := range items {
		if ctx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("pool: cancelled: %w", err)
	}
	return out, errs, nil
}

// ForEach is Map for side-effecting work without a result value.
func ForEach[I any](ctx context.Context, workers int, items []I, fn func(context.Context, I) error) error {
	_, err := Map(ctx, workers, items, func(ctx context.Context, item I) (struct{}, error) {
		return struct{}{}, fn(ctx, item)
	})
	return err
}
