// Command autopilot runs the full three-phase AutoPilot pipeline for one
// (UAV, scenario) specification and prints the selected DSSoC design, the
// conventional-DSE alternatives, and the mission-level comparison against
// the general-purpose baselines.
//
// Usage:
//
//	autopilot -uav nano -scenario dense [-sensor-fps 60] [-pool 2048]
//	          [-bo-iters 72] [-seed 1] [-workers 0] [-train] [-train-db f] [-json]
//	          [-algorithms dqn,reinforce] [-axis layers=2,4,7] [-axis pe_rows=8,16,32]
//	          [-vehicle-axes battery,sensor] [-catalog]
//
// -algorithms widens Phase 2 into an algorithm–SoC co-search: the training
// algorithm becomes a categorical search axis and the Pareto front reports
// which algorithm each design trains with. -axis overrides any numeric axis
// of the Table II grid (layers, filters, pe_rows, pe_cols, sram_kb).
//
// -vehicle-axes opens catalog components (airframe, battery, sensor) as
// additional categorical axes, turning the run into a SWaP-constrained
// full-vehicle co-design: every design flies on its own loadout, infeasible
// loadouts (overweight, under-thrust, over the battery's discharge limit)
// are reported as typed skips rather than scored, and the selection carries
// loadout columns. -catalog prints the component catalog and exits.
//
// The flags assemble an api.CoDesignRequest — the same typed contract the
// cmd/autopilotd job server accepts over HTTP — so a CLI run and a server
// job with equivalent parameters are bitwise identical.
//
// The Phase-1 training sweep, the Phase-2 evaluations and the Phase-2
// candidate screen fan out over -workers goroutines (0 = all CPUs); results
// are bitwise deterministic for a given seed regardless of the worker count.
// Ctrl-C cancels a long run cleanly; with -train and -train-db the Phase-1
// sweep checkpoints each completed policy, so rerunning the same command
// resumes instead of retraining.
//
// Observability: -trace writes a Chrome trace_event JSON of the phase and
// job spans (load it in chrome://tracing or Perfetto), -manifest writes a
// machine-readable run manifest (config, seeds, phase durations, metric
// snapshot, failure summary), and -debug-addr serves live metrics, expvar,
// and pprof over HTTP while the run is in flight. A one-line metrics summary
// is printed on exit. None of this perturbs results: instrumented runs are
// bitwise identical to uninstrumented ones.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/catalog"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/uav"
)

// options mirrors the command's flags; request translates them onto the
// shared API contract.
type options struct {
	UAV, Scenario string
	SensorFPS     float64
	Pool, BOIters int
	Seed          int64
	Workers       int
	Train         bool
	Episodes      int
	TrainDB       string
	Retries       int
	JobTimeout    time.Duration
	FailureBudget float64
	Algorithms    string
	Axes          multiFlag
	VehicleAxes   string
}

// multiFlag collects repeated flag occurrences.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func (o options) request() (api.CoDesignRequest, error) {
	timeoutMS, err := api.ParseJobTimeoutFlag(o.JobTimeout)
	if err != nil {
		return api.CoDesignRequest{}, err
	}
	req := api.CoDesignRequest{
		UAVClass: o.UAV,
		Scenario: o.Scenario,
		Seed:     o.Seed,
		Constraints: api.Constraints{
			CandidatePool: o.Pool,
			BOIterations:  o.BOIters,
			SensorFPS:     o.SensorFPS,
			Workers:       o.Workers,
			Retries:       o.Retries,
			JobTimeoutMS:  timeoutMS,
			FailureBudget: o.FailureBudget,
		},
	}
	if o.Train {
		req.Train = &api.TrainSpec{Episodes: o.Episodes, Checkpoint: o.TrainDB}
	}
	space, err := api.ParseSpaceFlags(o.Algorithms, o.Axes)
	if err != nil {
		return api.CoDesignRequest{}, err
	}
	req.Space = space
	vehicle, err := api.ParseVehicleFlags(o.VehicleAxes)
	if err != nil {
		return api.CoDesignRequest{}, err
	}
	req.Vehicle = vehicle
	return req, nil
}

func describe(name string, s core.Selection) {
	if !s.Liftable {
		fmt.Printf("%-3s  cannot be lifted by this UAV (payload %.0f g)\n", name, s.PayloadG)
		return
	}
	fmt.Printf("%-3s  %s\n", name, s.Design.Design)
	if s.Tuned != "" {
		fmt.Printf("     fine-tuned: %s\n", s.Tuned)
	}
	if s.Loadout != (dse.VehicleRef{}) {
		fmt.Printf("     loadout: %s (%.0f g all-up)\n", s.Loadout, s.Design.Vehicle.TotalWeightG)
	}
	fmt.Printf("     success %.0f%%  %.1f FPS  %.2f W SoC  %.1f g payload\n",
		100*s.Design.SuccessRate, s.Design.FPS, s.Design.SoCPowerW, s.PayloadG)
	fmt.Printf("     action %.1f Hz (knee %.1f Hz, %s, %s)  v_safe %.2f m/s\n",
		s.ActionHz, s.KneeHz, s.Bound, s.Provisioning, s.VSafeMS)
	fmt.Printf("     %.2f missions per charge (%.1f s, %.0f J each)\n",
		s.Missions(), s.Profile.MissionTime, s.Profile.MissionJ)
}

func main() {
	var o options
	flag.StringVar(&o.UAV, "uav", "nano", "UAV class: mini|micro|nano")
	flag.StringVar(&o.Scenario, "scenario", "dense", "deployment scenario: low|medium|dense")
	flag.Float64Var(&o.SensorFPS, "sensor-fps", 0, "sensor frame rate (0 = platform maximum)")
	flag.IntVar(&o.Pool, "pool", 2048, "Phase-2 candidate pool size")
	flag.IntVar(&o.BOIters, "bo-iters", 72, "Phase-2 Bayesian-optimization iterations")
	flag.Int64Var(&o.Seed, "seed", 1, "random seed")
	flag.IntVar(&o.Workers, "workers", 0, "evaluation/training worker pool size, which also bounds the Phase-2 candidate screen (0 = all CPUs)")
	flag.BoolVar(&o.Train, "train", false, "Phase 1: actually train policies with RL instead of the surrogate (slow)")
	flag.IntVar(&o.Episodes, "episodes", 150, "RL episodes per policy with -train")
	flag.StringVar(&o.TrainDB, "train-db", "", "with -train: checkpoint file making the Phase-1 sweep resumable")
	flag.IntVar(&o.Retries, "retries", 1, "attempt budget per training job / evaluation (1 = no retries)")
	flag.DurationVar(&o.JobTimeout, "job-timeout", 0, "per-attempt timeout (0 = unbounded)")
	flag.Float64Var(&o.FailureBudget, "failure-budget", 0, "fraction of jobs allowed to fail after retries (0 = fail-fast)")
	flag.StringVar(&o.Algorithms, "algorithms", "", "comma-separated training algorithms to co-search (e.g. dqn,reinforce)")
	flag.Var(&o.Axes, "axis", "override a search-space axis as name=v1,v2,... (repeatable; axes: layers, filters, pe_rows, pe_cols, sram_kb)")
	flag.StringVar(&o.VehicleAxes, "vehicle-axes", "", "comma-separated catalog components to co-search (airframe, battery, sensor)")
	printCatalog := flag.Bool("catalog", false, "print the component catalog and exit")
	asJSON := flag.Bool("json", false, "emit the selected design as JSON")
	var obsFlags obs.Flags
	obsFlags.Register()
	flag.Parse()

	if *printCatalog {
		if err := catalog.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "autopilot:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	req, err := o.request()
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopilot:", err)
		os.Exit(2)
	}
	spec, err := req.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopilot:", err)
		os.Exit(2)
	}

	run, err := obsFlags.Start("autopilot")
	if err != nil {
		fmt.Fprintln(os.Stderr, "autopilot:", err)
		os.Exit(1)
	}
	// finish prints the metrics one-liner and writes the trace/manifest
	// outputs; every exit path below goes through it exactly once.
	finish := func(runErr error) {
		if s := run.Summary(); s != "" {
			fmt.Fprintln(os.Stderr, s)
		}
		if cerr := run.Close(runErr); cerr != nil && runErr == nil {
			os.Exit(1)
		}
	}
	for k, v := range req.ManifestSeeds() {
		run.SetSeed(k, v)
	}
	for k, v := range req.ManifestConfig() {
		run.SetConfig(k, v)
	}
	spec.Obs = run.Obs

	rep, err := core.Run(ctx, spec)
	if err != nil {
		finish(err)
		fmt.Fprintln(os.Stderr, "autopilot:", err)
		os.Exit(1)
	}
	if rep.Phase1 != nil {
		run.AddFailures(fault.Records(rep.Phase1.Failures)...)
		if rep.Phase1.CheckpointQuarantined != "" {
			run.AddEvent("checkpoint-quarantined", rep.Phase1.CheckpointQuarantined)
		}
	}
	run.AddFailures(fault.Records(rep.Phase2.Failures)...)

	if *asJSON {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			finish(err)
			fmt.Fprintln(os.Stderr, "autopilot:", err)
			os.Exit(1)
		}
		finish(nil)
		return
	}

	fmt.Printf("AutoPilot DSSoC co-design: %s, %s scenario\n", spec.Platform.Name, spec.Scenario)
	fmt.Printf("Phase 1: %d validated policies in the Air Learning database\n", rep.Database.Len())
	fmt.Printf("Phase 2: %d designs evaluated, %d on the Pareto front\n",
		len(rep.Phase2.Evaluated), len(rep.Phase2.ParetoIdx))
	if n := len(rep.Phase2.Failures); n > 0 {
		fmt.Printf("Phase 2: %d evaluation(s) failed within the %.0f%% budget:\n%s\n",
			n, 100*spec.FailureBudget, fault.Summarize(rep.Phase2.Failures))
	}
	if n := len(rep.Phase2.Skips); n > 0 {
		fmt.Printf("Phase 2: %d infeasible loadout(s) skipped\n", n)
	}
	fmt.Println()
	describe("AP", rep.Selected)
	fmt.Println()
	describe("HT", rep.HT)
	describe("LP", rep.LP)
	describe("HE", rep.HE)
	fmt.Println()
	fmt.Println("Baselines on this UAV:")
	for _, b := range uav.AllBaselines() {
		sel := core.EvaluateBaseline(spec, rep.Database, b)
		gain := core.MissionGain(rep.Selected, sel)
		if sel.Missions() > 0 {
			fmt.Printf("  %-12s %6.2f missions  (AutoPilot gain %.2fx)\n", b.Name, sel.Missions(), gain)
		} else {
			fmt.Printf("  %-12s grounded (%.0f g exceeds lift capacity)\n", b.Name, b.WeightG)
		}
	}
	finish(nil)
}
