package obs

import (
	"context"
	"testing"
)

// The enabled-vs-noop pairs below pin the cost model the rest of the stack
// relies on: disabled instruments are a nil check, enabled counters are one
// atomic add, enabled histogram observes are a binary search plus two
// atomics. Run with:
//
//	go test ./internal/obs -bench . -benchmem

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterNoop(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramNoop(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer()
	root := tr.Span("bench", "bench")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root.Child("step", "bench").End()
	}
}

func BenchmarkSpanNoop(b *testing.B) {
	var root *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root.Child("step", "bench").End()
	}
}

func BenchmarkStartStepNoop(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartStep(ctx, "step", "bench").End()
	}
}
