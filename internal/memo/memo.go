// Package memo is a content-addressed result store for a pure function of a
// hashable key. Its one user is the job server (internal/server), which keys
// whole co-design jobs by their canonical request hash so a duplicate
// submission costs no second run.
//
// A Store combines three mechanisms:
//
//   - memoization with LRU eviction: completed values are kept up to a
//     capacity bound and the least-recently-used entry is evicted first, so
//     long-lived servers hold their working set without unbounded growth;
//   - singleflight deduplication: concurrent calls for the same uncached key
//     elect one leader to compute while the rest wait on its in-flight
//     result, so each key computes exactly once even under racing traffic;
//   - hit/miss/dedup/eviction counters: obs.Counter instruments resolved from
//     a registry (nil-safe) make cache effectiveness observable.
//
// Values must be pure functions of their key for the dedup to be sound; the
// Store never caches errors, so a failed computation is retried by the next
// caller.
package memo

import (
	"context"
	"fmt"
	"sync"

	"autopilot/internal/obs"
)

// Counters are the store's instruments. Any field may be nil (obs counters
// no-op on nil).
type Counters struct {
	// Hits counts calls served from the completed-value cache, including
	// waiters that received a deduplicated in-flight result.
	Hits *obs.Counter
	// Misses counts calls that had to compute: exactly the number of times
	// the underlying function ran (leaders only).
	Misses *obs.Counter
	// Dedups counts waiters that piggybacked on another caller's in-flight
	// computation instead of starting their own.
	Dedups *obs.Counter
	// Evictions counts completed values dropped by the LRU bound.
	Evictions *obs.Counter
}

// RegistryCounters resolves the store's counters from a registry under the
// given metric prefix: <prefix>.hits, .misses, .dedup, .evictions. A nil
// registry yields all-nil (no-op) counters.
func RegistryCounters(r *obs.Registry, prefix string) Counters {
	return Counters{
		Hits:      r.Counter(prefix + ".hits"),
		Misses:    r.Counter(prefix + ".misses"),
		Dedups:    r.Counter(prefix + ".dedup"),
		Evictions: r.Counter(prefix + ".evictions"),
	}
}

// entry is one completed value on the LRU list.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// flight is one in-progress computation; waiters block on done and read the
// result the leader stored.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Store is a concurrency-safe memoization store with singleflight dedup and
// LRU eviction. The zero value is not usable; construct with New.
type Store[K comparable, V any] struct {
	capacity int // >0 LRU-bounded, 0 unbounded, <0 caching disabled
	counters Counters

	mu         sync.Mutex
	entries    map[K]*entry[K, V]
	head, tail *entry[K, V] // LRU list; head is most recently used
	flights    map[K]*flight[V]
}

// New returns a store holding at most capacity completed values. A capacity
// of 0 means unbounded; a negative capacity disables caching entirely (every
// call computes, which also disables dedup — callers opting out of caching
// expect every invocation to run).
func New[K comparable, V any](capacity int, counters Counters) *Store[K, V] {
	return &Store[K, V]{
		capacity: capacity,
		counters: counters,
		entries:  map[K]*entry[K, V]{},
		flights:  map[K]*flight[V]{},
	}
}

// unlink removes e from the LRU list.
func (s *Store[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (s *Store[K, V]) pushFront(e *entry[K, V]) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// lookup returns the cached value for k, refreshing its recency. The caller
// holds s.mu.
func (s *Store[K, V]) lookup(k K) (V, bool) {
	e, ok := s.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
	return e.val, true
}

// insert stores v under k, evicting the least-recently-used entry when the
// capacity bound is exceeded. The caller holds s.mu.
func (s *Store[K, V]) insert(k K, v V) {
	if s.capacity < 0 {
		return
	}
	if e, ok := s.entries[k]; ok {
		e.val = v
		if s.head != e {
			s.unlink(e)
			s.pushFront(e)
		}
		return
	}
	e := &entry[K, V]{key: k, val: v}
	s.entries[k] = e
	s.pushFront(e)
	if s.capacity > 0 && len(s.entries) > s.capacity {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.counters.Evictions.Inc()
	}
}

// Put stores a completed value directly — the warm-start path (reloading a
// persisted result set) — without touching the hit/miss counters.
func (s *Store[K, V]) Put(k K, v V) {
	s.mu.Lock()
	s.insert(k, v)
	s.mu.Unlock()
}

// Do returns the value for k, computing it with fn on a miss. Concurrent
// calls for the same uncached key are deduplicated: one leader (counted as
// the miss) runs fn while the rest wait on its in-flight result (counted as
// hits), so misses equals the number of computations actually performed.
// Errors are returned to the leader and every waiter but never cached — the
// next call retries. The boolean reports whether the value came from the
// cache or another caller's computation (false exactly when this call ran
// fn). A cancelled ctx abandons only the wait; the leader's computation
// (driven by the leader's own context) continues for the callers still
// waiting on it.
func (s *Store[K, V]) Do(ctx context.Context, k K, fn func() (V, error)) (V, bool, error) {
	if s.capacity < 0 {
		s.counters.Misses.Inc()
		v, err := fn()
		return v, false, err
	}
	s.mu.Lock()
	if v, ok := s.lookup(k); ok {
		s.mu.Unlock()
		s.counters.Hits.Inc()
		return v, true, nil
	}
	if f, ok := s.flights[k]; ok {
		s.mu.Unlock()
		s.counters.Dedups.Inc()
		var zero V
		select {
		case <-f.done:
		case <-ctx.Done():
			return zero, false, fmt.Errorf("memo: wait cancelled: %w", ctx.Err())
		}
		if f.err != nil {
			return zero, false, f.err
		}
		s.counters.Hits.Inc()
		return f.val, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	s.flights[k] = f
	s.mu.Unlock()

	s.counters.Misses.Inc()
	f.val, f.err = fn()
	s.mu.Lock()
	if f.err == nil {
		// Store before retiring the flight, so a racing caller finds the key
		// either cached or in flight — never absent mid-handoff.
		s.insert(k, f.val)
	}
	delete(s.flights, k)
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}
