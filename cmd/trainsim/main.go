// Command trainsim runs AutoPilot's Phase 1 for real: it trains E2E
// policies with reinforcement learning on the grid-world navigation
// simulator through the unified training engine (internal/train), validates
// their success rates over domain-randomized episodes, and records them in
// an Air Learning database file.
//
// Single run:
//
//	trainsim -layers 4 -filters 48 -scenario medium -episodes 300 -db policies.json
//
// Resumable sweep over the full Table II family — interrupt with Ctrl-C and
// rerun the same command to pick up where it left off:
//
//	trainsim -all -scenario medium -workers 8 -db policies.json
//
// Observability: -trace writes a Chrome trace_event JSON of per-run training
// spans, -manifest a machine-readable run manifest, and -debug-addr serves
// live metrics/expvar/pprof over HTTP. -progress prints the engine's
// train/progress events from the obs event stream.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flag"

	"autopilot/internal/airlearning"
	"autopilot/internal/api"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/train"
)

func main() {
	layers := flag.Int("layers", 4, "E2E template depth (2-10)")
	filters := flag.Int("filters", 48, "E2E template width (32|48|64)")
	scenName := flag.String("scenario", "medium", "deployment scenario: low|medium|dense")
	episodes := flag.Int("episodes", 300, "training episodes per policy")
	evalEps := flag.Int("eval", 50, "validation episodes")
	algo := flag.String("algo", "dqn", "training algorithm: dqn|reinforce")
	seed := flag.Int64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "sweep/evaluation workers (0 = all CPUs)")
	all := flag.Bool("all", false, "sweep the full Table II template family (resumable via -db)")
	progress := flag.Int("progress", 0, "report training progress every N episodes (0 = per-run only)")
	dbPath := flag.String("db", "", "Air Learning database file to update; with -all it doubles as the resume checkpoint")
	retries := flag.Int("retries", 1, "attempt budget per sweep training job, with -all (1 = no retries)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-attempt timeout for sweep training jobs, with -all (0 = unbounded)")
	failureBudget := flag.Float64("failure-budget", 0, "fraction of sweep jobs allowed to fail after retries, with -all (0 = fail-fast)")
	var obsFlags obs.Flags
	obsFlags.Register()
	flag.Parse()

	// Scenario and algorithm names resolve through the shared api contract,
	// so trainsim accepts exactly the spellings cmd/autopilot and the job
	// server do.
	scen, err := api.ParseScenario(*scenName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(2)
	}
	algorithm, err := api.ParseAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(2)
	}
	if !*all {
		if err := sweepOnly(*retries, *jobTimeout, *failureBudget); err != nil {
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			os.Exit(2)
		}
	}
	timeoutMS, err := api.ParseJobTimeoutFlag(*jobTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(2)
	}
	cfg := rl.TrainConfig{Algorithm: algorithm, Episodes: *episodes, EvalEpisodes: *evalEps, Seed: *seed}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run, err := obsFlags.Start("trainsim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	finish := func(runErr error) {
		if s := run.Summary(); s != "" {
			fmt.Fprintln(os.Stderr, s)
		}
		if cerr := run.Close(runErr); cerr != nil && runErr == nil {
			os.Exit(1)
		}
	}
	run.SetSeed("seed", *seed)
	run.SetConfig("scenario", *scenName)
	run.SetConfig("algo", *algo)
	run.SetConfig("episodes", *episodes)
	run.SetConfig("eval_episodes", *evalEps)
	run.SetConfig("workers", *workers)
	run.SetConfig("all", *all)
	run.SetConfig("retries", *retries)
	run.SetConfig("failure_budget", *failureBudget)

	retry := api.Constraints{Retries: *retries, JobTimeoutMS: timeoutMS}.RetryPolicy()

	if *all {
		runSweep(ctx, run, finish, scen, cfg, *workers, *progress, *dbPath, retry, *failureBudget)
		return
	}

	h := policy.Hyper{Layers: *layers, Filters: *filters}
	if err := h.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(2)
	}
	// Progress rides the obs event stream; printProgress renders it to
	// stdout.
	run.Obs.Events = printProgress
	eng := train.New(rl.Factory(cfg), train.Config{
		Episodes:      cfg.Episodes,
		EvalEpisodes:  cfg.EvalEpisodes,
		Seed:          cfg.Seed,
		Workers:       *workers,
		ProgressEvery: *progress,
		Obs:           run.Obs,
	})
	fmt.Printf("training %s on %s with %s for %d episodes...\n", h, scen, algorithm, *episodes)
	rec, pol, err := eng.Train(ctx, h, scen)
	if err != nil {
		finish(err)
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		os.Exit(1)
	}
	ciEnv := airlearning.NewEnv(scen, *seed+5000)
	_, lo, hi := airlearning.SuccessRateCI(ciEnv, pol, *evalEps)
	fmt.Printf("validated success rate: %.0f%% over %d episodes (95%% CI %.0f-%.0f%%; %d env steps, %d deployment params)\n",
		100*rec.SuccessRate, *evalEps, 100*lo, 100*hi, rec.TrainSteps, rec.Params)

	if *dbPath != "" {
		db, err := airlearning.Load(*dbPath)
		if err != nil {
			db = airlearning.NewDatabase()
		}
		db.Put(rec)
		if err := db.Save(*dbPath); err != nil {
			finish(err)
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			os.Exit(1)
		}
		fmt.Printf("database %s now holds %d records\n", *dbPath, db.Len())
	}
	finish(nil)
}

// runSweep trains the full template family through the engine's resumable
// sweep: with -db set, every completed record is snapshotted there and a
// rerun skips the points the snapshot already holds. Jobs run under the
// retry policy; a positive failure budget lets the sweep finish with a
// failure report instead of aborting on the first exhausted job.
func runSweep(ctx context.Context, run *obs.Run, finish func(error), scen airlearning.Scenario, cfg rl.TrainConfig, workers, progress int, dbPath string, retry fault.Policy, failureBudget float64) {
	run.Obs.Events = printProgress
	eng := train.New(rl.Factory(cfg), train.Config{
		Episodes:      cfg.Episodes,
		EvalEpisodes:  cfg.EvalEpisodes,
		Seed:          cfg.Seed,
		Workers:       workers,
		Checkpoint:    dbPath,
		ProgressEvery: progress,
		Retry:         retry,
		FailureBudget: failureBudget,
		Obs:           run.Obs,
	})
	hypers := policy.AllHypers()
	fmt.Printf("sweeping %d template points on %s with %s (%d episodes each)...\n",
		len(hypers), scen, cfg.Algorithm, cfg.Episodes)
	db := airlearning.NewDatabase()
	rep, err := eng.Sweep(ctx, hypers, scen, db)
	if rep != nil {
		run.AddFailures(fault.Records(rep.Failures)...)
		if rep.CheckpointQuarantined != "" {
			run.AddEvent("checkpoint-quarantined", rep.CheckpointQuarantined)
		}
	}
	if err != nil {
		finish(err)
		fmt.Fprintln(os.Stderr, "trainsim:", err)
		if dbPath != "" {
			fmt.Fprintf(os.Stderr, "trainsim: partial results checkpointed in %s; rerun to resume\n", dbPath)
		}
		os.Exit(1)
	}
	if rep.CheckpointQuarantined != "" {
		fmt.Fprintf(os.Stderr, "trainsim: corrupt checkpoint quarantined to %s; sweep restarted from scratch\n",
			rep.CheckpointQuarantined)
	}
	if len(rep.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "trainsim: %d job(s) failed within the %.0f%% budget:\n%s\n",
			len(rep.Failures), 100*failureBudget, fault.Summarize(rep.Failures))
	}
	if best, ok := db.Best(scen); ok {
		fmt.Printf("sweep complete: %d records (%d trained, %d resumed); best for %s is %s (%.0f%%)\n",
			db.Len(), rep.Trained, rep.Skipped, scen, best.Hyper, 100*best.SuccessRate)
	}
	if dbPath != "" {
		if err := db.Save(dbPath); err != nil {
			finish(err)
			fmt.Fprintln(os.Stderr, "trainsim:", err)
			os.Exit(1)
		}
		fmt.Printf("database saved to %s\n", dbPath)
	}
	finish(nil)
}

// sweepOnly rejects a fault-tolerance flag set away from its default
// without -all: the flags drive the sweep's retry loop and failure budget,
// and a single run has neither.
func sweepOnly(retries int, jobTimeout time.Duration, failureBudget float64) error {
	switch {
	case retries != 1:
		return errors.New("-retries needs -all: a single run has no retry loop")
	case jobTimeout != 0:
		return errors.New("-job-timeout needs -all: a single run has no retry loop")
	case failureBudget != 0:
		return errors.New("-failure-budget needs -all: a single run has no failure budget")
	}
	return nil
}

// printProgress renders each training progress event as one line on stdout.
var printProgress = obs.EventFunc(func(e obs.Event) {
	p, ok := e.Payload.(train.Progress)
	if !ok {
		return
	}
	if p.Done {
		fmt.Printf("%s/%s [%s] done: %d episodes, %d env steps, %.0f%% success (%.1fs)\n",
			p.Hyper, p.Scenario, p.Algorithm, p.Episode, p.Steps, 100*p.SuccessRate, p.Elapsed.Seconds())
		return
	}
	fmt.Printf("%s/%s [%s] episode %d/%d: return %.2f, %d env steps (%.1fs)\n",
		p.Hyper, p.Scenario, p.Algorithm, p.Episode, p.Episodes, p.Return, p.Steps, p.Elapsed.Seconds())
})
