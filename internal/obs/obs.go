// Package obs is AutoPilot's observability layer: metrics, span tracing,
// run manifests, and a debug HTTP endpoint for the three-phase pipeline.
// After the parallel-evaluation, fault-tolerance, and training-engine layers
// the system runs hours-long sweeps with no way to see inside them; this
// package provides the instruments every layer (pool, train, dse, hw, fault,
// bayesopt, core) threads through:
//
//   - a metrics Registry of named atomic counters, gauges, and fixed-bucket
//     histograms (rollout episodes and env steps, hw-backend estimate
//     latency, cache hits/misses/dedups, retries, panics, injections,
//     worker busy/idle time);
//   - lightweight span tracing: a Tracer records monotonic begin/end spans
//     with parent/child nesting and exports them as a Chrome
//     `trace_event`-format JSON file (chrome://tracing, Perfetto);
//   - a structured Event stream that generalizes train's progress Sink;
//   - a machine-readable run Manifest capturing config, seeds, phase
//     durations, metric snapshots, and failure summaries, so runs are
//     comparable across commits;
//   - an optional debug HTTP endpoint serving live metrics JSON, expvar,
//     and net/http/pprof.
//
// Everything is nil-safe: a nil *Observer, *Registry, *Tracer, *Counter,
// *Gauge, *Histogram, or *Span no-ops on every method, so instrumented code
// never branches on "is observability on" and — critical for the rollout hot
// path — the disabled path performs zero allocations (verified by benchmark
// and by TestNoopZeroAlloc). Instrumentation is purely observational: it
// draws no randomness and reorders no work, so golden bitwise-determinism
// contracts hold with observability on or off.
//
// The package depends only on the standard library, so any internal package
// may import it without cycles.
package obs

import "context"

// Observer bundles the three observability surfaces a pipeline run carries:
// metrics, tracing, and the structured event stream. A nil *Observer (and
// any nil field) is valid and disables that surface.
type Observer struct {
	// Metrics is the run's instrument registry; nil disables metrics.
	Metrics *Registry
	// Trace records spans for the Chrome trace export; nil disables tracing.
	Trace *Tracer
	// Events receives structured pipeline events (training progress,
	// checkpoint quarantines); nil discards them.
	Events EventSink
}

// Counter returns the named counter from the observer's registry; nil-safe.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge from the observer's registry; nil-safe.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram from the observer's registry;
// nil-safe.
func (o *Observer) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, bounds)
}

// Span starts a root span on the observer's tracer; nil-safe.
func (o *Observer) Span(name, cat string) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Span(name, cat)
}

// Emit sends an event to the observer's sink; nil-safe.
func (o *Observer) Emit(e Event) {
	if o == nil || o.Events == nil {
		return
	}
	o.Events.Emit(e)
}

// Event is one structured pipeline occurrence: a category, a name, and an
// optional typed payload (e.g. train.Progress). Producers emit events
// through Observer.Emit; consumers type-assert the payload they understand.
type Event struct {
	// Cat groups related events ("train", "checkpoint").
	Cat string
	// Name identifies the event within its category ("progress",
	// "quarantined").
	Name string
	// Payload carries the producer's typed record; may be nil.
	Payload any
}

// EventSink receives pipeline events. Producers serialize their own Emit
// calls where ordering matters (the train engine does), so simple sinks need
// no locking.
type EventSink interface {
	Emit(Event)
}

// EventFunc adapts a plain function to the EventSink interface.
type EventFunc func(Event)

// Emit calls f.
func (f EventFunc) Emit(e Event) { f(e) }

// observerKey and spanKey carry the observer and the current parent span
// through context, so deeply nested layers (worker pools, the optimizer)
// pick up instrumentation without new parameters on every signature.
type observerKey struct{}
type spanKey struct{}

// NewContext returns ctx carrying the observer. A nil observer returns ctx
// unchanged, so the disabled path allocates nothing.
func NewContext(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerKey{}, o)
}

// FromContext returns the observer carried by ctx, or nil.
func FromContext(ctx context.Context) *Observer {
	o, _ := ctx.Value(observerKey{}).(*Observer)
	return o
}

// ContextWithSpan returns ctx carrying s as the current parent span. A nil
// span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current parent span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Tracing reports whether StartStep/StartJob on ctx would record a span —
// call sites use it to skip building span names on the disabled path.
func Tracing(ctx context.Context) bool {
	if SpanFromContext(ctx) != nil {
		return true
	}
	o := FromContext(ctx)
	return o != nil && o.Trace != nil
}

// StartStep starts a span that is a sequential child of the context's
// current span (same trace lane — for phases and steps that do not overlap
// their siblings). Without a parent span it falls back to a root span on the
// context observer's tracer, and to nil when neither is present.
func StartStep(ctx context.Context, name, cat string) *Span {
	if p := SpanFromContext(ctx); p != nil {
		return p.Child(name, cat)
	}
	return FromContext(ctx).Span(name, cat)
}

// StartJob starts a span for one unit of fanned-out work: it forks off the
// context's current span onto its own trace lane, so concurrent jobs render
// side by side under their parent phase. Without a parent span it falls back
// like StartStep.
func StartJob(ctx context.Context, name, cat string) *Span {
	if p := SpanFromContext(ctx); p != nil {
		return p.Fork(name, cat)
	}
	return FromContext(ctx).Span(name, cat)
}
