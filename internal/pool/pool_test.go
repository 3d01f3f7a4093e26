package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"autopilot/internal/fault"
)

func TestMapPreservesSubmissionOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		out, err := Map(context.Background(), workers, items, func(_ context.Context, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), 4, nil, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers must default to at least one")
	}
	if Workers(7) != 7 {
		t.Fatalf("Workers(7) = %d", Workers(7))
	}
}

func TestMapFirstErrorWinsAndDrains(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	deadline, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	_, err := Map(context.Background(), 4, items, func(ctx context.Context, v int) (int, error) {
		calls.Add(1)
		switch {
		case v == 10:
			return 0, fmt.Errorf("item %d: %w", v, boom)
		case v > 10:
			// Hold every later item until the failure cancels the batch, so
			// the other workers cannot run all 500 items while the one
			// holding item 10 is descheduled.
			select {
			case <-ctx.Done():
			case <-deadline.Done():
			}
		}
		return v, nil
	})
	if deadline.Err() != nil {
		t.Fatal("the failure did not cancel the batch within 10 s")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := calls.Load(); n == 500 {
		t.Error("error did not cancel remaining work")
	}
}

func TestMapCancellationWrapsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 64)
	started := make(chan struct{}, len(items))
	_, err := Map(ctx, 4, items, func(ctx context.Context, v int) (int, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		cancel()
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("worker not cancelled")
		}
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 1, []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	items := []int{1, 2, 3, 4, 5}
	if err := ForEach(context.Background(), 3, items, func(_ context.Context, v int) error {
		sum.Add(int64(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 15 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestMapPanicBecomesTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(context.Background(), workers, []int{0, 1, 2}, func(_ context.Context, v int) (int, error) {
			if v == 1 {
				panic("kaboom")
			}
			return v, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic did not surface as error", workers)
		}
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *fault.PanicError", workers, err)
		}
		if pe.Index != 1 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError = {Index:%d Value:%v stack:%d bytes}", workers, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

// TestMapEachIsolatesPanics is the panic-isolation determinism check: a
// seeded subset of jobs panics, the survivors' results come back in
// submission order, and the output is identical at workers=1 and workers=8.
func TestMapEachIsolatesPanics(t *testing.T) {
	const n = 64
	in := &fault.Injector{Seed: 99, PanicRate: 0.25}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) ([]int, []error) {
		t.Helper()
		out, errs, err := MapEach(context.Background(), workers, items, func(_ context.Context, v int) (int, error) {
			if in.Decide(fmt.Sprintf("job%d", v)) == fault.InjectPanic {
				panic(v)
			}
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out, errs
	}
	out1, errs1 := run(1)
	out8, errs8 := run(8)
	panics := 0
	for i := range items {
		if (errs1[i] == nil) != (errs8[i] == nil) {
			t.Fatalf("item %d: workers=1 err %v, workers=8 err %v", i, errs1[i], errs8[i])
		}
		if errs1[i] != nil {
			panics++
			var pe *fault.PanicError
			if !errors.As(errs1[i], &pe) || pe.Index != i {
				t.Fatalf("item %d: err = %v, want *fault.PanicError at that index", i, errs1[i])
			}
			continue
		}
		if out1[i] != i*i || out8[i] != i*i {
			t.Fatalf("item %d: survivors differ: %d vs %d (want %d)", i, out1[i], out8[i], i*i)
		}
	}
	if panics == 0 || panics == n {
		t.Fatalf("injected panics = %d of %d, want a proper subset", panics, n)
	}
}

// TestMapWorkerErrorWinsOverCancellation is the lost-cancellation
// regression: when a worker fails and the parent context is cancelled, the
// worker's error must surface as the cause while errors.Is still reports the
// cancellation.
func TestMapWorkerErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Map(ctx, 4, []int{0, 1, 2, 3}, func(_ context.Context, v int) (int, error) {
		if v == 0 {
			cancel()
			return 0, boom
		}
		<-ctx.Done()
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the worker's error as cause", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must still report context.Canceled", err)
	}
}

func TestMapEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := MapEach(ctx, 2, []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestMapEachEmpty(t *testing.T) {
	out, errs, err := MapEach(context.Background(), 2, nil, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(out) != 0 || len(errs) != 0 {
		t.Fatalf("MapEach(nil) = %v, %v, %v", out, errs, err)
	}
}
