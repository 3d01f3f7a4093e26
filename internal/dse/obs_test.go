package dse

import (
	"context"
	"reflect"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/obs"
	"autopilot/internal/power"
)

// executeObs runs the small Phase 2 with a full observer attached (metrics,
// tracer, event sink).
func executeObs(t *testing.T, workers int) (*Result, *obs.Observer) {
	t.Helper()
	o := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Events:  obs.EventFunc(func(obs.Event) {}),
	}
	res, err := Execute(context.Background(), Request{
		Space:    DefaultSpace(),
		DB:       surrogateDB(),
		Scenario: airlearning.DenseObstacle,
		Power:    power.Default(),
		Config:   smallConfig(),
		Workers:  workers,
		Obs:      o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, o
}

// TestObsBitwiseNeutral pins the observability contract for Phase 2:
// attaching the full observer (metrics + tracing + events) changes no result
// bit at any worker count. Instrumentation draws no randomness and reorders
// no work.
func TestObsBitwiseNeutral(t *testing.T) {
	for _, workers := range []int{1, 8} {
		plain := execute(t, workers)
		instr, _ := executeObs(t, workers)
		if len(plain.Evaluated) != len(instr.Evaluated) {
			t.Fatalf("workers=%d: evaluated counts differ: %d vs %d",
				workers, len(plain.Evaluated), len(instr.Evaluated))
		}
		for i := range plain.Evaluated {
			if plain.Evaluated[i] != instr.Evaluated[i] {
				t.Fatalf("workers=%d: evaluation %d differs with obs on:\n%+v\n%+v",
					workers, i, plain.Evaluated[i], instr.Evaluated[i])
			}
		}
		if !reflect.DeepEqual(plain.ParetoIdx, instr.ParetoIdx) {
			t.Fatalf("workers=%d: ParetoIdx differs with obs on:\n%v\n%v",
				workers, plain.ParetoIdx, instr.ParetoIdx)
		}
		if plain.HT != instr.HT || plain.LP != instr.LP || plain.HE != instr.HE {
			t.Fatalf("workers=%d: conventional picks differ with obs on", workers)
		}
	}
}

// TestObsCountersMatchResult: the registry's estimate telemetry agrees with
// the Result's count of scored designs.
func TestObsCountersMatchResult(t *testing.T) {
	res, o := executeObs(t, 4)
	r := o.Metrics
	if res.CacheMisses == 0 {
		t.Fatal("small run performed no simulations")
	}
	// Every design the search sends to the evaluator runs the (instrumented)
	// backend exactly once.
	if got := r.Counter("hw.estimate.calls").Value(); got != res.CacheMisses {
		t.Errorf("hw.estimate.calls = %d, want %d (one per scored design)", got, res.CacheMisses)
	}
	if got := r.Snapshot().Histograms["hw.estimate_seconds"].Count; got != res.CacheMisses {
		t.Errorf("hw.estimate_seconds.count = %d, want %d", got, res.CacheMisses)
	}
	if r.Counter("bo.evaluations").Value() == 0 {
		t.Error("bo.evaluations not counted")
	}
	// The search must have left completed dse/bayesopt spans behind.
	if ds := o.Trace.Durations("dse"); len(ds) != 1 {
		t.Errorf("dse spans = %+v, want exactly one", ds)
	}
	if ds := o.Trace.Durations("bayesopt"); len(ds) == 0 {
		t.Error("no bayesopt spans recorded")
	}
}
