package obs

import (
	"context"
	"testing"
)

// TestNilInstrumentsNoop pins the layer's core contract: every method on
// every nil instrument is a safe no-op, so instrumented code never branches
// on "is observability on".
func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}

	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}

	var h *Histogram
	h.Observe(1)
	if h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}

	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", []float64{1}).Observe(1)
	if s := r.Summary(); s != "" {
		t.Fatalf("nil registry summary = %q", s)
	}

	var o *Observer
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x", []float64{1}).Observe(1)
	o.Span("x", "y").End()
	o.Emit(Event{Cat: "test", Name: "e"})
}

// TestNoopZeroAlloc verifies the disabled hot path allocates nothing: nil
// instruments, and the context helpers on a bare context (no observer).
func TestNoopZeroAlloc(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	var o *Observer
	var f *Fleet
	ctx := context.Background()

	cases := map[string]func(){
		"counter.Inc":     func() { c.Inc() },
		"counter.Add":     func() { c.Add(3) },
		"gauge.Set":       func() { g.Set(1.5) },
		"histogram":       func() { h.Observe(2.5) },
		"span.End":        func() { s.End() },
		"span.Child":      func() { s.Child("c", "t").End() },
		"span.Fork":       func() { s.Fork("f", "t").End() },
		"observer.Emit":   func() { o.Emit(Event{}) },
		"FromContext":     func() { FromContext(ctx) },
		"SpanFromContext": func() { SpanFromContext(ctx) },
		"Tracing":         func() { _ = Tracing(ctx) },
		"StartStep":       func() { StartStep(ctx, "s", "t").End() },
		"StartJob":        func() { StartJob(ctx, "j", "t").End() },
		"NewContext(nil)": func() { NewContext(ctx, nil) },
		"fleet.Update":    func() { f.Update("w", 1, Snapshot{}) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the disabled path, want 0", name, allocs)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	o := &Observer{Metrics: NewRegistry(), Trace: NewTracer()}
	ctx := NewContext(context.Background(), o)
	if FromContext(ctx) != o {
		t.Fatal("FromContext did not return the stored observer")
	}
	if !Tracing(ctx) {
		t.Fatal("Tracing false with a tracer-bearing observer")
	}

	// StartStep without a parent span falls back to a root span.
	root := StartStep(ctx, "phase1", "phase")
	if root == nil {
		t.Fatal("StartStep returned nil with observer present")
	}
	ctx2 := ContextWithSpan(ctx, root)
	if SpanFromContext(ctx2) != root {
		t.Fatal("SpanFromContext did not return the stored span")
	}

	// With a parent in context, StartStep nests and StartJob forks.
	step := StartStep(ctx2, "step", "phase")
	if step.tid != root.tid {
		t.Fatalf("step tid %d != parent tid %d", step.tid, root.tid)
	}
	job := StartJob(ctx2, "job", "train")
	if job.tid < laneBase {
		t.Fatalf("job tid %d not on a fork lane", job.tid)
	}
	step.End()
	job.End()
	root.End()

	// A metrics-only observer does not claim to be tracing.
	mOnly := NewContext(context.Background(), &Observer{Metrics: NewRegistry()})
	if Tracing(mOnly) {
		t.Fatal("Tracing true without a tracer")
	}
	if Tracing(context.Background()) {
		t.Fatal("Tracing true on a bare context")
	}
}

func TestObserverEmit(t *testing.T) {
	var got []Event
	o := &Observer{Events: EventFunc(func(e Event) { got = append(got, e) })}
	o.Emit(Event{Cat: "train", Name: "progress", Payload: 7})
	if len(got) != 1 || got[0].Cat != "train" || got[0].Payload.(int) != 7 {
		t.Fatalf("emitted = %+v", got)
	}
}
