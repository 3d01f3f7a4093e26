package dse

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/power"
)

// execute runs Phase 2 for the test space with an explicit worker count.
func execute(t *testing.T, workers int) *Result {
	t.Helper()
	res, err := Execute(context.Background(), Request{
		Space:    DefaultSpace(),
		DB:       surrogateDB(),
		Scenario: airlearning.DenseObstacle,
		Power:    power.Default(),
		Config:   smallConfig(),
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	// The core guarantee of the parallel engine: same seed, workers=1 vs
	// workers=8 produce identical results — evaluation order, Pareto front,
	// and conventional picks.
	seq := execute(t, 1)
	par := execute(t, 8)
	if len(seq.Evaluated) != len(par.Evaluated) {
		t.Fatalf("evaluated counts differ: %d vs %d", len(seq.Evaluated), len(par.Evaluated))
	}
	for i := range seq.Evaluated {
		if seq.Evaluated[i] != par.Evaluated[i] {
			t.Fatalf("evaluation %d differs:\n%+v\n%+v", i, seq.Evaluated[i], par.Evaluated[i])
		}
	}
	if !reflect.DeepEqual(seq.ParetoIdx, par.ParetoIdx) {
		t.Fatalf("ParetoIdx differs:\n%v\n%v", seq.ParetoIdx, par.ParetoIdx)
	}
	if seq.HT != par.HT || seq.LP != par.LP || seq.HE != par.HE {
		t.Fatalf("conventional picks differ: %d/%d/%d vs %d/%d/%d",
			seq.HT, seq.LP, seq.HE, par.HT, par.LP, par.HE)
	}
}

func TestExecuteDefaultWorkersMatchesExplicit(t *testing.T) {
	s := DefaultSpace()
	old, err := run(s, surrogateDB(), airlearning.DenseObstacle, power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := execute(t, 4)
	if !reflect.DeepEqual(old.ParetoIdx, res.ParetoIdx) {
		t.Fatalf("default and 4-worker Execute disagree on the front:\n%v\n%v", old.ParetoIdx, res.ParetoIdx)
	}
}

func TestExecuteCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, Request{
		Space:    DefaultSpace(),
		DB:       surrogateDB(),
		Scenario: airlearning.DenseObstacle,
		Power:    power.Default(),
		Config:   smallConfig(),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Space: DefaultSpace(), DB: surrogateDB(), Config: smallConfig()}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.DB = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for nil database")
	}
	bad = good
	bad.Config.CandidatePool = 1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for tiny pool")
	}
	bad = good
	bad.Space.PERows = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for bad space")
	}
}

// TestEvaluateEachPreservesOrder: results come back index-aligned with the
// batch, and both copies of a design submitted twice equal the design
// scored alone.
func TestEvaluateEachPreservesOrder(t *testing.T) {
	s := DefaultSpace()
	ev := NewEvaluator(surrogateDB(), airlearning.DenseObstacle, power.Default(),
		WithTemplate(s.Template), WithWorkers(4))
	base := s.Sample(8, 5)
	ds := append(append([]DesignPoint{}, base...), base...)
	es, errs, err := ev.EvaluateEach(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(ds) || len(errs) != len(ds) {
		t.Fatalf("len = %d/%d, want %d", len(es), len(errs), len(ds))
	}
	for i := range base {
		if errs[i] != nil || errs[i+len(base)] != nil {
			t.Fatalf("design %d failed: %v / %v", i, errs[i], errs[i+len(base)])
		}
		if es[i].Design != ds[i] {
			t.Fatalf("result %d out of order", i)
		}
		if es[i] != es[i+len(base)] {
			t.Fatalf("duplicate design %d evaluated inconsistently", i)
		}
		if want, _ := ev.Evaluate(ds[i]); es[i] != want {
			t.Fatalf("design %d: batch and single evaluation differ", i)
		}
	}
}

// TestEvaluateEachIsolatesPanics: a delegate that panics on a seeded subset
// of designs fails those designs alone, each with a *fault.PanicError, and
// the batch's results and failures are identical at workers 1 and 8.
func TestEvaluateEachIsolatesPanics(t *testing.T) {
	in := &fault.Injector{Seed: 99, PanicRate: 0.25}
	ds := DefaultSpace().Sample(64, 3)
	run := func(workers int) ([]Evaluated, []error) {
		t.Helper()
		req := Request{Space: DefaultSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
			Power: power.Default(), Workers: workers}
		local := req.NewEvaluator()
		req.Delegate = func(ctx context.Context, d DesignPoint) (Evaluated, error) {
			if in.Decide(d.String()) == fault.InjectPanic {
				panic(d.String())
			}
			return local.EvaluateContext(ctx, d)
		}
		es, errs, err := req.NewEvaluator().EvaluateEach(context.Background(), ds)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return es, errs
	}
	es1, errs1 := run(1)
	es8, errs8 := run(8)
	panics := 0
	for i, d := range ds {
		if (errs1[i] == nil) != (errs8[i] == nil) {
			t.Fatalf("design %d: workers=1 err %v, workers=8 err %v", i, errs1[i], errs8[i])
		}
		if errs1[i] != nil {
			panics++
			var pe *fault.PanicError
			if !errors.As(errs1[i], &pe) || pe.Value != d.String() {
				t.Fatalf("design %d: err = %v, want its own *fault.PanicError", i, errs1[i])
			}
			continue
		}
		if es1[i] != es8[i] || es1[i].Design != d {
			t.Fatalf("design %d: survivors differ between worker counts", i)
		}
	}
	if panics == 0 || panics == len(ds) {
		t.Fatalf("injected panics = %d of %d, want a proper subset", panics, len(ds))
	}
}

func TestExecuteRandomOptimizerParallelDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		res, err := Execute(context.Background(), Request{
			Space:     DefaultSpace(),
			DB:        surrogateDB(),
			Scenario:  airlearning.DenseObstacle,
			Power:     power.Default(),
			Config:    smallConfig(),
			Optimizer: OptRandom,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(6)
	if !reflect.DeepEqual(a.ParetoIdx, b.ParetoIdx) {
		t.Fatalf("random-search fronts differ across worker counts:\n%v\n%v", a.ParetoIdx, b.ParetoIdx)
	}
}
