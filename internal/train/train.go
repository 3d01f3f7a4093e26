// Package train is the unified Phase-1 training engine: one seam between
// AutoPilot's orchestrator and the reinforcement-learning algorithms that
// populate the Air Learning policy database (paper §III-A — the multi-day RL
// sweep over the E2E template family). It mirrors the shape of internal/hw:
// an Algorithm interface consumes Transitions from the training episode
// loop, a Collector validates the trained policy with worker-pooled
// rollouts, and an Engine drives the whole sweep.
//
// The engine guarantees:
//
//   - cancellation: the caller's context is honored between training
//     episodes and between the steps of evaluation rollouts, so an
//     interrupted sweep returns promptly with an error wrapping ctx.Err();
//   - bitwise determinism at any worker count: per-run seeds derive from the
//     hyper-parameter identity (JobSeed), per-episode evaluation seeds derive
//     from the episode index, and each evaluation worker runs the frozen
//     policy's own Forward through a replica — a sweep at workers=8 produces
//     the same database, bit for bit, as workers=1;
//   - resumability: with a checkpoint path configured, the database is
//     snapshotted atomically after every completed (hyper, scenario) record
//     and a restarted sweep skips points the checkpoint already holds;
//   - observability: per-run progress (episodes done, env steps, validated
//     success rate, wall time) streams through the internal/obs event
//     stream (Cat "train", Name "progress", a Progress payload), and with
//     Config.Obs set the engine also records episode, step, and per-run
//     latency instruments plus per-run trace spans.
//
// The concrete algorithms (DQN, REINFORCE) live in internal/rl and plug in
// behind the Algorithm interface via a Factory; this package never imports
// them.
package train

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/pool"
)

// Algorithm is one reinforcement-learning method stepped by the engine's
// episode loop. The engine rolls the behavior policy (Act) through the
// environment, streams every Transition into Observe — where value-based
// methods update on their own schedule — and fires EndEpisode at each
// episode boundary, where Monte-Carlo methods apply their update. Policy
// returns the frozen deployment policy the collector validates; a policy
// that serves one goroutine at a time offers a Replica method, so the
// collector can give each rollout worker its own.
type Algorithm interface {
	// Name identifies the method ("dqn", "reinforce") for progress reports.
	Name() string
	// Act selects the behavior-policy (exploration) action.
	Act(obs airlearning.Observation) int
	// Observe consumes one transition; the algorithm may update immediately,
	// on a schedule, or not at all.
	Observe(t airlearning.Transition)
	// EndEpisode marks an episode boundary with its result.
	EndEpisode(res airlearning.EpisodeResult)
	// Policy returns the current greedy deployment policy.
	Policy() airlearning.Policy
}

// Factory builds a fresh Algorithm for one (hyper, seed) training run. It
// must be deterministic in its arguments alone so a sweep reproduces the
// same agents whichever worker constructs them.
type Factory func(h policy.Hyper, seed int64) (Algorithm, error)

// Config parameterizes the engine.
type Config struct {
	// Episodes is the training budget per policy; EvalEpisodes the number of
	// domain-randomized validation rollouts. Both must be positive.
	Episodes     int
	EvalEpisodes int

	// Seed is the base seed. Train uses it directly; Sweep derives each
	// run's seed from it via JobSeed so results are identical at any worker
	// count.
	Seed int64

	// Workers bounds the sweep and evaluation worker pools; <= 0 selects
	// runtime.NumCPU(). The worker count never changes results.
	Workers int

	// Checkpoint is the database snapshot path. When non-empty, Sweep
	// resumes from an existing snapshot (skipping already-trained points)
	// and atomically re-snapshots after every completed record. Empty
	// disables checkpointing.
	Checkpoint string

	// ProgressEvery reports training progress to the sink every N completed
	// episodes; <= 0 reports only run completion.
	ProgressEvery int

	// Retry is the per-job retry policy for sweep training runs. The zero
	// value performs a single attempt (no retries, behaviorally identical to
	// the pre-retry engine). Retried attempts perturb the job's seed via
	// fault.AttemptSeed — attempt 0 always uses the unperturbed JobSeed —
	// so a job that succeeds first try is bitwise unchanged, and a retried
	// job is deterministic in (hyper, scenario, attempt).
	Retry fault.Policy

	// FailureBudget is the fraction of sweep jobs allowed to fail (after
	// retries) before the sweep itself errors. 0 preserves the historical
	// fail-fast semantics: the first job error aborts the sweep. A budget of
	// 0.25 lets a sweep complete — with the failures reported in its
	// SweepReport — as long as at least 75% of the attempted jobs produced
	// validated records.
	FailureBudget float64

	// Injector, when non-nil, deterministically injects faults into sweep
	// training jobs for chaos testing. Jobs are keyed "record-key#attempt",
	// so whether a job draws a fault is a pure function of its identity (and
	// retry attempt), never of worker count or scheduling.
	Injector *fault.Injector

	// Obs, when non-nil, instruments the engine: episode/step counters and
	// per-run latency land in its registry, training runs and evaluation
	// become trace spans, and progress reports are mirrored onto its event
	// stream (Cat "train", Name "progress", Payload Progress). Nil disables
	// all instrumentation at zero cost — results are bitwise identical
	// either way.
	Obs *obs.Observer
}

// Validate checks the training budgets.
func (c Config) Validate() error {
	if c.Episodes <= 0 || c.EvalEpisodes <= 0 {
		return fmt.Errorf("train: non-positive training budget (episodes %d, eval %d)",
			c.Episodes, c.EvalEpisodes)
	}
	if math.IsNaN(c.FailureBudget) || c.FailureBudget < 0 || c.FailureBudget > 1 {
		return fmt.Errorf("train: failure budget %g outside [0,1]", c.FailureBudget)
	}
	return nil
}

// evalSeedOffset separates a run's evaluation environments from its training
// environment: train seed s, eval seed s+1000, the assignment every pinned
// Phase-1 result was produced with.
const evalSeedOffset = 1000

// JobSeed derives the per-policy training seed from the hyper-parameter
// identity, never from sweep position, so Phase-1 results are identical
// whichever worker (or submission order) trains a policy. For the full
// Table II family the derived seeds coincide with the historical sequential
// assignment (base, base+1, ...), keeping surrogate-calibration runs
// reproducible across versions.
func JobSeed(base int64, h policy.Hyper) int64 {
	filterIdx := 0
	for i, f := range policy.FilterChoices {
		if f == h.Filters {
			filterIdx = i
			break
		}
	}
	return base + int64((h.Layers-2)*len(policy.FilterChoices)+filterIdx)
}

// Engine drives Phase-1 training runs: a Factory supplies the algorithm, the
// engine owns the episode loop, cancellation, parallel evaluation,
// checkpointing, and progress reporting.
type Engine struct {
	factory Factory
	cfg     Config

	mu     sync.Mutex // serializes event emission across sweep workers
	events obs.EventSink

	// Instruments, resolved once in New so the episode loop touches no maps.
	// All are nil when Config.Obs is nil — every method on them no-ops.
	cEpisodes *obs.Counter   // train.episodes: training episodes completed
	cSteps    *obs.Counter   // train.env_steps: training env steps taken
	cRuns     *obs.Counter   // train.runs: (hyper, scenario) runs validated
	hRunSec   *obs.Histogram // train.run_seconds: per-run wall time
}

// New returns an engine that builds algorithms with factory under cfg.
// Progress flows through the obs event stream (Config.Obs.Events).
func New(factory Factory, cfg Config) *Engine {
	e := &Engine{factory: factory, cfg: cfg}
	if cfg.Obs != nil {
		e.events = cfg.Obs.Events
		e.cEpisodes = cfg.Obs.Counter("train.episodes")
		e.cSteps = cfg.Obs.Counter("train.env_steps")
		e.cRuns = cfg.Obs.Counter("train.runs")
		e.hRunSec = cfg.Obs.Histogram("train.run_seconds", obs.ExpBuckets(0.001, 4, 12))
	}
	return e
}

func (e *Engine) report(p Progress) {
	if e.events == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events.Emit(obs.Event{Cat: "train", Name: "progress", Payload: p})
}

// Train runs one (hyper, scenario) training run with the config's base seed
// — the single-policy entry point (cmd/trainsim, rl.Engine). Cancellation is
// checked between episodes and inside the evaluation rollouts.
func (e *Engine) Train(ctx context.Context, h policy.Hyper, s airlearning.Scenario) (airlearning.Record, airlearning.Policy, error) {
	return e.train(obs.NewContext(ctx, e.cfg.Obs), h, s, e.cfg.Seed)
}

// train is one training run at an explicit seed.
func (e *Engine) train(ctx context.Context, h policy.Hyper, s airlearning.Scenario, seed int64) (airlearning.Record, airlearning.Policy, error) {
	if err := e.cfg.Validate(); err != nil {
		return airlearning.Record{}, nil, err
	}
	alg, err := e.factory(h, seed)
	if err != nil {
		return airlearning.Record{}, nil, err
	}
	// One span per training run, forked onto its own trace lane so concurrent
	// sweep jobs render side by side. The name is only built when tracing is
	// live, keeping the disabled path allocation-free.
	var sp *obs.Span
	if obs.Tracing(ctx) {
		sp = obs.StartJob(ctx, "train "+airlearning.Key(h, s), "train")
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	defer sp.End()
	env := airlearning.NewEnv(s, seed)
	start := time.Now()
	prog := Progress{Hyper: h, Scenario: s, Algorithm: alg.Name(), Episodes: e.cfg.Episodes}
	steps := 0
	for ep := 0; ep < e.cfg.Episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return airlearning.Record{}, nil, fmt.Errorf("train: cancelled: %w", err)
		}
		res := RunTrainingEpisode(env, alg)
		if err := fault.CheckFinite("episode return", res.Return); err != nil {
			return airlearning.Record{}, nil, fmt.Errorf("train: %s on %s episode %d: %w", alg.Name(), s, ep, err)
		}
		steps += res.Steps
		e.cEpisodes.Inc()
		e.cSteps.Add(int64(res.Steps))
		if e.cfg.ProgressEvery > 0 && (ep+1)%e.cfg.ProgressEvery == 0 {
			prog.Episode, prog.Steps, prog.Return, prog.Elapsed = ep+1, steps, res.Return, time.Since(start)
			e.report(prog)
		}
	}

	pol := alg.Policy()
	col := Collector{
		Scenario: s,
		Seed:     seed + evalSeedOffset,
		Workers:  e.cfg.Workers,
		Obs:      e.cfg.Obs,
	}
	esp := obs.StartStep(ctx, "eval", "train")
	rate, err := col.SuccessRate(obs.ContextWithSpan(ctx, esp), pol, e.cfg.EvalEpisodes)
	esp.End()
	if err != nil {
		return airlearning.Record{}, nil, err
	}
	if err := fault.CheckFinite("validated success rate", rate); err != nil {
		return airlearning.Record{}, nil, fmt.Errorf("train: %s on %s: %w", alg.Name(), s, err)
	}
	params := int64(0)
	if n, err := policy.Build(h, policy.DefaultTemplate()); err == nil {
		params = n.Params()
	}
	rec := airlearning.Record{
		Hyper:       h,
		Scenario:    s,
		SuccessRate: rate,
		Params:      params,
		TrainSteps:  steps,
	}
	prog.Episode, prog.Steps, prog.SuccessRate = e.cfg.Episodes, steps, rate
	prog.Elapsed, prog.Done = time.Since(start), true
	e.cRuns.Inc()
	e.hRunSec.Observe(prog.Elapsed.Seconds())
	e.report(prog)
	return rec, pol, nil
}

// SweepReport summarizes a completed sweep: how many records were trained
// this run, how many the checkpoint already held, which jobs failed after
// exhausting their retries (in deterministic hyper order), and whether a
// corrupt checkpoint had to be quarantined before starting.
type SweepReport struct {
	// Trained is the number of records produced by this run.
	Trained int
	// Skipped is the number of points the resumed checkpoint already held.
	Skipped int
	// Failures records every job that failed after retries, in the hypers'
	// submission order — identical at any worker count.
	Failures []fault.Failure
	// CheckpointQuarantined is the path a corrupt checkpoint was renamed to
	// (empty when the checkpoint was absent or valid).
	CheckpointQuarantined string
}

// trainJob runs one sweep job under the engine's retry policy and fault
// injector. Attempt 0 uses the unperturbed identity-derived seed; retries
// re-derive it with fault.AttemptSeed so every attempt is deterministic in
// (hyper, scenario, attempt) alone.
func (e *Engine) trainJob(ctx context.Context, h policy.Hyper, s airlearning.Scenario) (airlearning.Record, error) {
	base := JobSeed(e.cfg.Seed, h)
	key := airlearning.Key(h, s)
	var rec airlearning.Record
	err := fault.Retry(ctx, e.cfg.Retry, func(ctx context.Context, attempt int) error {
		jobKey := fmt.Sprintf("%s#%d", key, attempt)
		return e.cfg.Injector.Invoke(jobKey, func() error {
			r, _, err := e.train(ctx, h, s, fault.AttemptSeed(base, attempt))
			if err != nil {
				return err
			}
			r.SuccessRate = e.cfg.Injector.Value(jobKey, r.SuccessRate)
			if err := fault.CheckFinite("validated success rate", r.SuccessRate); err != nil {
				return err
			}
			rec = r
			return nil
		})
	})
	return rec, err
}

// Sweep trains every hyper on the scenario, fanning runs out over the
// config's worker pool with identity-derived seeds, and fills db with the
// validated records. With a checkpoint configured it first resumes from any
// existing snapshot (already-trained points are skipped) and re-snapshots
// the database after each completed record, so an interrupted sweep restarts
// where it left off and converges to the same database as an uninterrupted
// run. A corrupt checkpoint is quarantined (renamed aside by the loader) and
// the sweep restarts from scratch, reporting the quarantine path.
//
// Each job runs under the config's retry policy with panic isolation. With a
// zero FailureBudget an exhausted job stops the sweep (fail-fast): no later
// job starts, the jobs already running finish, and the error of the
// lowest-index exhausted job, named by its airlearning.Key, is returned —
// the same error at every worker count. A positive budget lets the sweep
// complete — failures recorded in the report — as long as the failed
// fraction stays within budget.
func (e *Engine) Sweep(ctx context.Context, hypers []policy.Hyper, s airlearning.Scenario, db *airlearning.Database) (*SweepReport, error) {
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	ctx = obs.NewContext(ctx, e.cfg.Obs)
	sp := obs.StartStep(ctx, "sweep "+s.String(), "train")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	report := &SweepReport{}
	if e.cfg.Checkpoint != "" {
		prev, err := airlearning.Load(e.cfg.Checkpoint)
		var corrupt *airlearning.CorruptError
		switch {
		case err == nil:
			for _, r := range prev.All() {
				db.Put(r)
			}
		case errors.Is(err, os.ErrNotExist):
			// fresh run: nothing to resume
		case errors.As(err, &corrupt):
			// Damaged checkpoint: the loader already quarantined it; note
			// where and restart from scratch.
			report.CheckpointQuarantined = corrupt.Quarantined
			e.cfg.Obs.Emit(obs.Event{Cat: "checkpoint", Name: "quarantined", Payload: corrupt.Quarantined})
		default:
			return nil, fmt.Errorf("train: resume checkpoint: %w", err)
		}
	}
	var todo []policy.Hyper
	for _, h := range hypers {
		if !db.Has(h, s) {
			todo = append(todo, h)
		}
	}
	report.Skipped = len(hypers) - len(todo)
	e.cfg.Obs.Counter("train.jobs.skipped").Add(int64(report.Skipped))

	errs := make([]error, len(todo))
	err := pool.Run(ctx, e.cfg.Workers, len(todo), func(i int) error {
		rec, err := e.trainJob(ctx, todo[i], s)
		if err == nil {
			db.Put(rec)
			if e.cfg.Checkpoint != "" {
				err = db.Snapshot(e.cfg.Checkpoint)
			}
		}
		if errs[i] = err; err != nil && e.cfg.FailureBudget <= 0 {
			return fmt.Errorf("train: %s: %w", airlearning.Key(todo[i], s), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, jerr := range errs {
		if jerr == nil {
			report.Trained++
			continue
		}
		report.Failures = append(report.Failures, fault.NewFailure(airlearning.Key(todo[i], s), jerr))
	}
	e.cfg.Obs.Counter("train.jobs.trained").Add(int64(report.Trained))
	e.cfg.Obs.Counter("train.jobs.failed").Add(int64(len(report.Failures)))
	if err := fault.CheckBudget(report.Failures, len(todo), e.cfg.FailureBudget, "sweep jobs"); err != nil {
		return report, fmt.Errorf("train: %w", err)
	}
	return report, nil
}
