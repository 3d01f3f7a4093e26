package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"autopilot/internal/obs"
)

// counters returns a fully populated counter set on a fresh registry.
func counters() Counters { return RegistryCounters(obs.NewRegistry(), "test") }

func TestDoMemoizes(t *testing.T) {
	c := counters()
	s := New[string, int](0, c)
	calls := 0
	fn := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, cached, err := s.Do(context.Background(), "k", fn)
		if err != nil || v != 42 {
			t.Fatalf("Do = %d, %v", v, err)
		}
		if cached != (i > 0) {
			t.Fatalf("call %d cached = %v", i, cached)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if hits, misses := c.Hits.Value(), c.Misses.Value(); hits != 2 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

func TestErrorsNeverCached(t *testing.T) {
	s := New[string, int](0, counters())
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	if _, _, err := s.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := s.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("failed fn ran %d times, want 2 (errors must not cache)", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	c := counters()
	s := New[int, int](2, c)
	id := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	s.Do(context.Background(), 1, id(1))
	s.Do(context.Background(), 2, id(2))
	s.Do(context.Background(), 1, id(1)) // refresh 1: now 2 is LRU
	s.Do(context.Background(), 3, id(3)) // evicts 2
	if ev := c.Evictions.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	if _, cached, _ := s.Do(context.Background(), 1, id(-1)); !cached {
		t.Fatal("recently used key 1 was evicted")
	}
	if _, cached, _ := s.Do(context.Background(), 3, id(-3)); !cached {
		t.Fatal("newest key 3 missing")
	}
	// The evicted key recomputes.
	calls := 0
	s.Do(context.Background(), 2, func() (int, error) { calls++; return 2, nil })
	if calls != 1 {
		t.Fatal("key 2 survived eviction")
	}
}

func TestDisabledCapacityAlwaysComputes(t *testing.T) {
	c := counters()
	s := New[string, int](-1, c)
	calls := 0
	for i := 0; i < 3; i++ {
		s.Do(context.Background(), "k", func() (int, error) { calls++; return 7, nil })
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times with caching disabled, want 3", calls)
	}
	if hits, misses := c.Hits.Value(), c.Misses.Value(); hits != 0 || misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 0/3", hits, misses)
	}
}

func TestSingleflightDedup(t *testing.T) {
	c := counters()
	s := New[string, int](0, c)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	errs := make([]error, n)
	// The leader goes first and parks inside fn so the flight is provably
	// open before any waiter calls Do.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], _, errs[0] = s.Do(context.Background(), "k", func() (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return 99, nil
		})
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, errs[i] = s.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				return 99, nil
			})
		}(i)
	}
	// Dedups increments before a waiter blocks on the flight, so once it
	// reaches n-1 every waiter has joined; only then release the leader.
	for c.Dedups.Value() < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil || vals[i] != 99 {
			t.Fatalf("goroutine %d: %d, %v", i, vals[i], errs[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	hits, misses := c.Hits.Value(), c.Misses.Value()
	if misses != 1 || hits != n-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}
	if c.Dedups.Value() != n-1 {
		t.Fatalf("dedups = %d, want %d", c.Dedups.Value(), n-1)
	}
}

func TestWaitCancellation(t *testing.T) {
	s := New[string, int](0, counters())
	started := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	// The leader's result still lands for later callers.
	v, _, err := s.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || v != 1 {
		t.Fatalf("post-cancel Do = %d, %v; want leader's 1", v, err)
	}
}

func TestPutWarmStart(t *testing.T) {
	c := counters()
	s := New[string, string](4, c)
	s.Put("k", "warm")
	if misses := c.Misses.Value(); misses != 0 {
		t.Fatalf("Put counted %d misses", misses)
	}
	v, cached, err := s.Do(context.Background(), "k", func() (string, error) {
		return "", errors.New("must not run")
	})
	if err != nil || !cached || v != "warm" {
		t.Fatalf("Do after Put = %q, cached=%v, err=%v", v, cached, err)
	}
}

func TestRegistryCounters(t *testing.T) {
	// Nil registry: all counters nil, everything no-ops without panicking.
	c := RegistryCounters(nil, "x")
	s := New[int, int](1, c)
	if _, _, err := s.Do(context.Background(), 1, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Hits.Value(), c.Misses.Value(); hits != 0 || misses != 0 {
		t.Fatal("nil counters must read zero")
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := counters()
	s := New[int, int](8, c)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 16
				v, _, err := s.Do(context.Background(), k, func() (int, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					panic(fmt.Sprintf("k=%d v=%d err=%v", k, v, err))
				}
			}
		}(g)
	}
	wg.Wait()
	// Every miss inserts one value and every eviction drops one.
	if held := c.Misses.Value() - c.Evictions.Value(); held > 8 {
		t.Fatalf("store holds %d values, over its capacity 8", held)
	}
}
