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
	for _, workers := range []int{1, 2, 8, 200} {
		out := make([]int, 100)
		err := Run(context.Background(), workers, len(out), func(i int) error {
			out[i] = i * i
			return nil
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
	err := Run(context.Background(), 4, 0, func(int) error {
		t.Error("fn called on an empty batch")
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

// TestForEach checks that every index is handed out exactly once.
func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		calls := make([]atomic.Int32, 50)
		if err := Run(context.Background(), workers, len(calls), func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestRunFailFastDeterministicAcrossWorkerCounts is the fail-fast contract:
// item 0 fails 20 ms after item 1 has failed, and Run must still return item
// 0's error at every worker count. Every other item waits for item 0, so
// when item 1 fails nothing else has finished and no index past the first
// `workers` can have started; none may start after that failure.
func TestRunFailFastDeterministicAcrossWorkerCounts(t *testing.T) {
	err0, err1 := errors.New("item 0"), errors.New("item 1")
	for _, workers := range []int{1, 2, 8} {
		var maxRan atomic.Int64
		zeroDone := make(chan struct{})
		err := Run(context.Background(), workers, 64, func(i int) error {
			for {
				m := maxRan.Load()
				if int64(i) <= m || maxRan.CompareAndSwap(m, int64(i)) {
					break
				}
			}
			switch i {
			case 0:
				time.Sleep(20 * time.Millisecond)
				close(zeroDone)
				return err0
			case 1:
				return err1
			}
			<-zeroDone
			return nil
		})
		if !errors.Is(err, err0) || errors.Is(err, err1) {
			t.Errorf("workers=%d: err = %v, want item 0's error", workers, err)
		}
		if m := maxRan.Load(); m >= int64(workers) {
			t.Errorf("workers=%d: index %d was handed out after item 1 failed", workers, m)
		}
	}
}

func TestMapFirstErrorWinsAndDrains(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	tenDone := make(chan struct{})
	err := Run(context.Background(), 4, 500, func(i int) error {
		calls.Add(1)
		switch {
		case i == 10:
			close(tenDone)
			return fmt.Errorf("item %d: %w", i, boom)
		case i > 10:
			// Hold every later item until item 10 has failed, and give each
			// a millisecond of work, so the other workers cannot run all 500
			// items while the one holding item 10 is descheduled before it
			// records the failure.
			<-tenDone
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := calls.Load(); n == 500 {
		t.Error("the failure did not stop the hand-out")
	}
}

func TestMapCancellationWrapsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Run(ctx, 4, 64, func(int) error {
		cancel()
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("item not cancelled")
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		err := Run(ctx, workers, 3, func(int) error {
			t.Errorf("workers=%d: item ran under a cancelled context", workers)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
	}
}

func TestMapPanicBecomesTypedError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(context.Background(), workers, 3, func(i int) error {
			if i == 1 {
				panic("kaboom")
			}
			return nil
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

// TestMapWorkerErrorWinsOverCancellation is the lost-cancellation
// regression: when an item fails and the parent context is cancelled, the
// item's error must surface as the cause while errors.Is still reports the
// cancellation.
func TestMapWorkerErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := Run(ctx, 4, 4, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the item's error as cause", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must still report context.Canceled", err)
	}
}
