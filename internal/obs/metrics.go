package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// no-ops, so call sites resolved from a nil registry cost one predictable
// branch and zero allocations.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 last-value instrument. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v; nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v to the gauge atomically; nil-safe.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value; 0 for a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative-less histogram: bucket i counts
// observations v with v <= Bounds[i] (and greater than the previous bound);
// one implicit overflow bucket counts everything above the last bound.
// Observations are lock-free atomic adds, so hot paths can observe
// concurrently; a nil *Histogram no-ops.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram returns a standalone histogram with the given strictly
// increasing upper bounds. It panics on unsorted or empty bounds — bucket
// layouts are static configuration, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// multiplying by factor — the standard latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("obs: bad exponential buckets (start %v, factor %v, n %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~4s in powers of four — the default layout
// for the pipeline's seconds-valued latency histograms.
var LatencyBuckets = ExpBuckets(1e-6, 4, 12)

// Observe records v; nil-safe and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucket returns the index of the bucket counting v: the smallest i with
// v <= bounds[i], or the overflow bucket.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Sum returns the sum of all observations; 0 for a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// MergeError is the typed rejection of a histogram snapshot whose bucket
// layout disagrees with the one obs.Fleet pinned for its name. The fleet
// skips and counts the single mismatched instrument instead of dropping a
// whole worker snapshot.
type MergeError struct {
	// Instrument names the mismatched series.
	Instrument string
	// Index is the first disagreeing bound index (-1 when the bucket counts
	// themselves differ).
	Index                 int
	WantBounds, GotBounds int
	WantBound, GotBound   float64
}

func (e *MergeError) Error() string {
	name := ""
	if e.Instrument != "" {
		name = " " + e.Instrument
	}
	if e.Index < 0 {
		return fmt.Sprintf("obs: merge%s of mismatched histograms (%d vs %d buckets)", name, e.WantBounds+1, e.GotBounds+1)
	}
	return fmt.Sprintf("obs: merge%s of mismatched histogram bounds at %d (%v vs %v)", name, e.Index, e.WantBound, e.GotBound)
}

// HistogramSnapshot is the JSON-marshalable state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry holds a run's named instruments. Lookups create instruments on
// first use and always return the same instance for a name, so call sites
// can resolve instruments once and hold the pointers across a run. A nil
// *Registry returns nil instruments, which no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty instrument registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use; nil-safe.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on first
// use; later lookups return the existing instrument regardless of bounds.
// Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time, JSON-marshalable copy of a registry's
// instruments.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. A nil registry yields
// a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON renders the registry snapshot as indented JSON — what the debug
// endpoint's /debug/metrics serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Summary renders the registry as a single "name=value"-per-instrument line
// in sorted name order — the one-line exit report the CLIs print. Zero
// counters are elided; histograms report count and mean. An empty (or nil)
// registry yields "".
func (r *Registry) Summary() string {
	s := r.Snapshot()
	var parts []string
	for name, v := range s.Counters {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	for name, v := range s.Gauges {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", name, v))
		}
	}
	for name, h := range s.Histograms {
		if h.Count > 0 {
			parts = append(parts, fmt.Sprintf("%s.count=%d", name, h.Count),
				fmt.Sprintf("%s.mean=%.3g", name, h.Sum/float64(h.Count)))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
