package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	c := NewRegistry().Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

// TestHistogramBucketBoundaries pins the le-semantics: bucket i counts v with
// v <= bounds[i], values above the last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.0000001, 10, 99, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := h.snapshot()
	// 0.5 and 1 -> bucket 0; 1.0000001 and 10 -> bucket 1; 99 and 100 ->
	// bucket 2; 101 and 1e9 -> overflow.
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+10+99+100+101+1e9; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 300))
			}
		}()
	}
	wg.Wait()
	if n := h.snapshot().Count; n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 4, 3)
	want := []float64{1e-6, 4e-6, 1.6e-5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRegistrySameInstance pins the resolve-once contract: repeated lookups
// return the identical instrument pointer.
func TestRegistrySameInstance(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter lookup returned different instances")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", []float64{2}) {
		t.Fatal("histogram lookup returned different instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge lookup returned different instances")
	}
}

func TestRegistrySnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs").Add(3)
	r.Gauge("temp").Set(1.25)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)
	s := r.Snapshot()
	if s.Counters["jobs"] != 3 || s.Gauges["temp"] != 1.25 || s.Histograms["lat"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("registry JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["jobs"] != 3 {
		t.Fatalf("round-tripped counters = %v", back.Counters)
	}
}

func TestRegistrySummary(t *testing.T) {
	r := NewRegistry()
	if r.Summary() != "" {
		t.Fatalf("empty registry summary = %q", r.Summary())
	}
	r.Counter("b.zero") // stays zero: must be elided
	r.Counter("a.jobs").Add(2)
	r.Counter("c.hits").Add(7)
	r.Histogram("lat", []float64{1}).Observe(0.5)
	got := r.Summary()
	if want := "a.jobs=2 c.hits=7 lat.count=1 lat.mean=0.5"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if strings.Contains(got, "zero") {
		t.Fatalf("zero counter not elided: %q", got)
	}
}
