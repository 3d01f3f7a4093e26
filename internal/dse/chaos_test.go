package dse

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/power"
)

// chaosExecute runs Phase 2 under a fault injector with an open failure
// budget.
func chaosExecute(t *testing.T, workers int, in *fault.Injector, retry fault.Policy, budget float64) (*Result, error) {
	t.Helper()
	return Execute(context.Background(), Request{
		Space:         DefaultSpace(),
		DB:            surrogateDB(),
		Scenario:      airlearning.DenseObstacle,
		Power:         power.Default(),
		Config:        smallConfig(),
		Workers:       workers,
		Retry:         retry,
		FailureBudget: budget,
		Injector:      in,
	})
}

// TestExecuteChaosDeterministicDegradation injects seeded evaluation faults
// and checks Phase 2 degrades identically at workers=1 and workers=8: same
// failure report, bitwise-identical surviving evaluations, same front, and
// no NaN leaking past the guardrails into the survivors.
func TestExecuteChaosDeterministicDegradation(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.08, NaNRate: 0.08}
	seq, err := chaosExecute(t, 1, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := chaosExecute(t, 8, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Failures) == 0 {
		t.Fatal("injector produced no failures; retune seed/rates so the test exercises degradation")
	}
	if len(seq.Evaluated) == 0 {
		t.Fatal("no surviving evaluations")
	}
	if !reflect.DeepEqual(seq.Failures, par.Failures) {
		t.Fatalf("failure reports differ across worker counts:\n%v\n%v", seq.Failures, par.Failures)
	}
	if !reflect.DeepEqual(seq.Evaluated, par.Evaluated) {
		t.Fatal("surviving evaluations differ across worker counts")
	}
	if !reflect.DeepEqual(seq.ParetoIdx, par.ParetoIdx) {
		t.Fatalf("Pareto fronts differ: %v vs %v", seq.ParetoIdx, par.ParetoIdx)
	}
	if seq.HT != par.HT || seq.LP != par.LP || seq.HE != par.HE {
		t.Fatal("conventional picks differ across worker counts")
	}
	for i, e := range seq.Evaluated {
		if err := fault.CheckFinite("evaluation", e.FPS, e.RuntimeSec, e.SoCPowerW, e.SuccessRate); err != nil {
			t.Fatalf("survivor %d (%s) carries non-finite objectives: %v", i, e.Design, err)
		}
	}
	for _, f := range seq.Failures {
		if f.Kind != fault.KindError && f.Kind != fault.KindNumerical {
			t.Fatalf("unexpected failure kind for injected fault: %+v", f)
		}
	}
}

// TestExecuteRetryClearsInjectedFaults checks that retries — whose injection
// keys include the attempt index — recover designs that failed on their
// first attempt: the retried run must fail strictly fewer designs.
func TestExecuteRetryClearsInjectedFaults(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.12}
	noRetry, err := chaosExecute(t, 4, in, fault.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	withRetry, err := chaosExecute(t, 4, in, fault.Policy{Attempts: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(noRetry.Failures) == 0 {
		t.Fatal("baseline run has no failures; retune seed/rates")
	}
	if len(withRetry.Failures) >= len(noRetry.Failures) {
		t.Fatalf("retries did not reduce failures: %d with vs %d without",
			len(withRetry.Failures), len(noRetry.Failures))
	}
	for _, f := range withRetry.Failures {
		if f.Attempts != 3 {
			t.Fatalf("terminal failure %+v did not exhaust the 3-attempt budget", f)
		}
	}
}

// TestExecuteNilInjectorWithBudgetMatchesFailFast pins that merely enabling
// the degradation path (positive budget, no faults) is bitwise neutral.
func TestExecuteNilInjectorWithBudgetMatchesFailFast(t *testing.T) {
	clean := execute(t, 4)
	budgeted, err := chaosExecute(t, 4, nil, fault.Policy{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(budgeted.Failures) != 0 {
		t.Fatalf("fault-free run reported failures: %v", budgeted.Failures)
	}
	if !reflect.DeepEqual(clean.Evaluated, budgeted.Evaluated) {
		t.Fatal("failure budget perturbed a fault-free run's evaluations")
	}
	if !reflect.DeepEqual(clean.ParetoIdx, budgeted.ParetoIdx) {
		t.Fatal("failure budget perturbed a fault-free run's Pareto front")
	}
}

// TestExecuteFailureBudgetExceeded checks a blown budget surfaces as an
// error that carries the failure summary.
func TestExecuteFailureBudgetExceeded(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.3}
	res, err := chaosExecute(t, 4, in, fault.Policy{}, 0.001)
	if err == nil {
		t.Fatal("sweep with ~30% injected failures passed a 0.1% budget")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("budget error does not describe the failures: %v", err)
	}
	if res == nil || len(res.Failures) == 0 {
		t.Fatal("budget error must still return the failure report")
	}
}

// TestExecuteInjectedFailFastErrorDeterministic: without a failure budget a
// search stops at the lowest-index failure of the batch that hit one, after
// the whole batch has finished, so the reported error is the same at every
// worker count.
func TestExecuteInjectedFailFastErrorDeterministic(t *testing.T) {
	in := &fault.Injector{Seed: 3, ErrorRate: 0.3}
	var want string
	for i, workers := range []int{1, 8, 8, 8, 8} {
		_, err := chaosExecute(t, workers, in, fault.Policy{}, 0)
		if err == nil {
			t.Fatal("fail-fast run with ~30% injected failures succeeded")
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d reported %q, workers=1 reported %q", workers, err, want)
		}
	}
}

// TestExecuteChaosEveryOptimizer: every optimizer degrades under a failure
// budget — failed designs are recorded, never scored, and the result is
// bitwise identical at one and at eight workers.
func TestExecuteChaosEveryOptimizer(t *testing.T) {
	in := &fault.Injector{Seed: 11, ErrorRate: 0.08, NaNRate: 0.08}
	for _, opt := range []Optimizer{OptBayesian, OptGenetic, OptAnnealing, OptReinforce, OptRandom} {
		exec := func(workers int) *Result {
			res, err := Execute(context.Background(), Request{
				Space: DefaultSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
				Power: power.Default(), Config: smallConfig(), Optimizer: opt, Workers: workers,
				FailureBudget: 1, Injector: in,
			})
			if err != nil {
				t.Fatalf("%s: %v", opt, err)
			}
			return res
		}
		res := exec(1)
		if got, want := resultDigest(exec(8)), resultDigest(res); got != want {
			t.Errorf("%s: workers=8 digest %s, workers=1 %s", opt, got, want)
		}
		if len(res.Failures) == 0 {
			t.Errorf("%s: injector produced no failures", opt)
		}
		scored := map[string]bool{}
		for _, e := range res.Evaluated {
			scored[e.Design.String()] = true
		}
		for _, f := range res.Failures {
			if scored[strings.TrimPrefix(f.Job, "probe ")] {
				t.Errorf("%s: failed design %s was scored", opt, f.Job)
			}
		}
	}
}
