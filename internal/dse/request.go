package dse

import (
	"context"
	"fmt"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/hw"
	"autopilot/internal/obs"
	"autopilot/internal/pareto"
	"autopilot/internal/power"
)

// Request bundles everything a Phase-2 run needs, so new knobs (worker
// count, optimizer choice) extend the API without breaking callers.
type Request struct {
	// Space is the joint model/accelerator search space (Table II).
	Space Space
	// DB is the Phase-1 validated-policy database success rates come from.
	DB *airlearning.Database
	// Scenario selects the deployment scenario scored against.
	Scenario airlearning.Scenario
	// Power is the technology power model.
	Power power.Model
	// Config sets the search budget and seeding policy.
	Config Config
	// Optimizer selects the search method; the zero value is OptBayesian.
	Optimizer Optimizer
	// Workers bounds the evaluation worker pool and the goroutines the
	// Bayesian optimizer screens its candidates on; <= 0 means
	// runtime.NumCPU(). Results are bitwise deterministic regardless of the
	// worker count.
	Workers int

	// Vehicle is the mission/thermal context for spaces with vehicle axes;
	// the zero value selects the defaults. SoC-only spaces never consult it.
	Vehicle VehicleParams

	// Retry is the per-design retry policy; the zero value performs a single
	// attempt per design (identical to the pre-retry engine).
	Retry fault.Policy
	// JobTimeout bounds each evaluation attempt; 0 means unbounded. It
	// composes with Retry (a timed-out attempt is retryable). The bound is
	// cooperative, and a local evaluation never reads its context, so it
	// never times out.
	JobTimeout time.Duration
	// FailureBudget is the fraction of evaluations allowed to fail (after
	// retries) before the run errors. 0 preserves fail-fast: the batch that
	// hits the first evaluation error aborts the search, reporting its
	// lowest-index failure. A positive budget records failed designs in
	// Result.Failures, feeds the optimizer survivors only, and completes the
	// run as long as the failed fraction stays within budget.
	FailureBudget float64
	// Injector deterministically injects faults into backend evaluations for
	// chaos testing; nil injects nothing.
	Injector *fault.Injector
	// Delegate, when non-nil, routes every design evaluation through a
	// remote executor (the grid coordinator's lease pool) instead of the
	// local backend. Revisits and skip/failure accounting stay local: the
	// search answers a revisited design without calling it.
	Delegate func(ctx context.Context, d DesignPoint) (Evaluated, error)
	// Obs, when non-nil, instruments the run: estimate and failure telemetry
	// on its registry, search/eval trace spans, retry counters. nil disables
	// instrumentation; scores are bitwise identical either way.
	Obs *obs.Observer
}

// Validate checks the request.
func (r Request) Validate() error {
	if err := r.Space.Validate(); err != nil {
		return err
	}
	if r.DB == nil {
		return fmt.Errorf("dse: nil database")
	}
	if r.Config.CandidatePool < 2 {
		return fmt.Errorf("dse: candidate pool %d too small", r.Config.CandidatePool)
	}
	return nil
}

// NewEvaluator builds the request's evaluator without running a search: the
// only way to get one configured with the request's retry policy, job
// timeout, chaos injector, delegate, vehicle context and telemetry. Execute
// scores with it, and grid workers use it to score individual design points
// with exactly the engine a local Execute would have used (same retry
// policy, injector keys and telemetry), which is what keeps remote
// evaluation bitwise identical to local evaluation. A positive JobTimeout
// overrides Retry.Timeout, and a zero Vehicle selects
// DefaultVehicleParams().
func (r Request) NewEvaluator() *Evaluator {
	ev := NewEvaluator(r.DB, r.Scenario, r.Power, WithTemplate(r.Space.Template), WithWorkers(r.Workers))
	ev.retry, ev.injector, ev.delegate = r.Retry, r.Injector, r.Delegate
	if r.JobTimeout > 0 {
		ev.retry.Timeout = r.JobTimeout
	}
	if r.Vehicle != (VehicleParams{}) {
		ev.vp = r.Vehicle
	}
	if o := r.Obs; o != nil {
		// Every backend estimate is timed into hw.estimate_seconds, and
		// terminal evaluation failures are counted.
		ev.cFailures = o.Counter("dse.eval.failures")
		sec := o.Histogram("hw.estimate_seconds", obs.LatencyBuckets)
		calls, errs := o.Counter("hw.estimate.calls"), o.Counter("hw.estimate.errors")
		ev.instr = func(b hw.Backend) hw.Backend { return hw.Instrument(b, sec, calls, errs) }
	}
	return ev
}

// Execute runs Phase 2 for a request: explore the space with the requested
// optimizer, score the probe sweep, and label the conventional-DSE picks.
// Every design is scored by one search loop (see search): each proposal
// fans out over a bounded worker pool but is filed in submission order, so
// the result is bitwise deterministic for a given seed regardless of
// Workers. Cancelling the context drains the pool and returns an error
// wrapping ctx.Err().
//
// Each evaluation runs under the request's retry policy with panic
// isolation. With a zero FailureBudget an evaluation error aborts the search
// (fail-fast) once its batch has finished, reporting the batch's
// lowest-index failure; a positive budget records failed designs in
// Result.Failures, feeds the optimizer the survivors, and errors only when
// the failed fraction exceeds the budget.
func Execute(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ctx = obs.NewContext(ctx, req.Obs)
	sp := obs.StartStep(ctx, "dse "+req.Scenario.String(), "dse")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)

	ps := req.Space.ParamSpace()
	opt, budget, err := req.newProposer(ps)
	if err != nil {
		return nil, err
	}
	s := &search{req: req, ev: req.NewEvaluator(), ps: ps, res: &Result{Scenario: req.Scenario}}
	if err := s.run(ctx, opt, budget); err != nil {
		return nil, err
	}
	if err := s.probe(ctx); err != nil {
		return nil, err
	}
	res := s.res
	objs := make([][]float64, len(res.Evaluated))
	for i, e := range res.Evaluated {
		objs[i] = e.Objectives()
	}
	res.ParetoIdx = pareto.NonDominated(objs)
	res.labelConventional()
	attempted := len(res.Evaluated) + len(res.Failures)
	if err := fault.CheckBudget(res.Failures, attempted, req.FailureBudget, "evaluations"); err != nil {
		return res, fmt.Errorf("dse: %w", err)
	}
	return res, nil
}
