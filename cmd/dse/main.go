// Command dse runs AutoPilot's Phase 2 in isolation: multi-objective
// Bayesian design-space exploration over the Table II model/accelerator
// space for one deployment scenario, printing the Pareto frontier and the
// conventional HT/LP/HE picks.
//
// Usage:
//
//	dse -scenario dense [-pool 2048] [-iters 72] [-seed 1] [-workers 0]
//	    [-db policies.json] [-algorithms dqn,reinforce] [-axis layers=2,4,7]
//	    [-vehicle-axes battery,sensor] [-catalog]
//
// -algorithms widens the sweep into an algorithm–SoC co-search (the
// training algorithm becomes a categorical axis); -axis overrides any
// numeric axis of the Table II grid (layers, filters, pe_rows, pe_cols,
// sram_kb).
//
// -vehicle-axes opens catalog components (airframe, battery, sensor) as
// additional categorical axes: each design flies on its own loadout,
// objectives switch to the full-vehicle metrics (success, vehicle power,
// missions per charge), and loadouts failing the SWaP feasibility check are
// reported as typed skips, never scored. -catalog prints the component
// catalog and exits.
//
// -grid-workers N shards the sweep across N in-process grid workers through
// the lease-based coordinator (internal/grid); -grid-listen ADDR serves the
// coordinator for external cmd/gridworker processes instead. Either way the
// optimizer loop stays in this process and the result is bitwise identical
// to the single-process run at any worker count or kill schedule.
//
// The flags assemble an api.CoDesignRequest and run its Phase-2 projection,
// so flag validation and request wiring are shared with cmd/autopilot and
// the cmd/autopilotd job server.
//
// Evaluations, and the Bayesian optimizer's screen of its candidates, fan
// out over -workers goroutines (0 = all CPUs); the result is bitwise
// deterministic for a given seed regardless of the worker count.
// Ctrl-C cancels the sweep cleanly.
//
// Observability: -trace writes a Chrome trace_event JSON of the search and
// evaluation spans, -manifest a machine-readable run manifest, and
// -debug-addr serves live metrics/expvar/pprof over HTTP. A one-line metrics
// summary (evaluations, simulations) is printed on exit.
//
// In grid mode the trace is fleet-merged: each worker ships an evaluation
// span on every result post, and the delivery that completes a job puts its
// span on that worker's own pid lane; the manifest gains a grid topology
// section (who did what, at what cost); and the grid listener additionally
// serves /grid/v1/fleet (per-worker health and federated metrics) plus
// /debug/prometheus (text exposition of the coordinator registry and the
// per-worker-labeled fleet series). -debug-addr's /debug/prometheus carries
// the coordinator registry only.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/api"
	"autopilot/internal/catalog"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/grid"
	"autopilot/internal/obs"
)

// multiFlag collects repeated flag occurrences.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	scenName := flag.String("scenario", "dense", "deployment scenario: low|medium|dense")
	pool := flag.Int("pool", 2048, "candidate pool size")
	iters := flag.Int("iters", 72, "Bayesian-optimization iterations")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "evaluation worker pool size, which also bounds the candidate screen (0 = all CPUs)")
	dbPath := flag.String("db", "", "Air Learning database file (default: built-in surrogate)")
	failureBudget := flag.Float64("failure-budget", 0, "fraction of evaluations allowed to fail after retries (0 = fail-fast)")
	algorithms := flag.String("algorithms", "", "comma-separated training algorithms to co-search (e.g. dqn,reinforce)")
	var axes multiFlag
	flag.Var(&axes, "axis", "override a search-space axis as name=v1,v2,... (repeatable; axes: layers, filters, pe_rows, pe_cols, sram_kb)")
	vehicleAxes := flag.String("vehicle-axes", "", "comma-separated catalog components to co-search (airframe, battery, sensor)")
	printCatalog := flag.Bool("catalog", false, "print the component catalog and exit")
	gridWorkers := flag.Int("grid-workers", 0, "shard the sweep across N in-process grid workers (0 = single-process)")
	gridListen := flag.String("grid-listen", "", "serve the grid coordinator on this address for external gridworker processes (implies grid mode)")
	gridBatch := flag.Int("grid-batch", 0, "grid: jobs granted per lease call (0 = default)")
	gridLeaseTTL := flag.Duration("grid-lease-ttl", 0, "grid: lease deadline before a lost job is reclaimed (0 = default 10s)")
	gridHeartbeat := flag.Duration("grid-heartbeat", 0, "grid: worker heartbeat period (0 = lease TTL / 4)")
	gridMaxLeases := flag.Int("grid-max-leases", 0, "grid: max concurrent leases per job, the work-stealing width (0 = default 2)")
	gridMaxAttempts := flag.Int("grid-max-attempts", 0, "grid: lease attempts per job before it fails (0 = default 6)")
	var obsFlags obs.Flags
	obsFlags.Register()
	flag.Parse()

	if *printCatalog {
		if err := catalog.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	req := api.CoDesignRequest{
		Scenario: *scenName,
		Seed:     *seed,
		Constraints: api.Constraints{
			CandidatePool: *pool,
			BOIterations:  *iters,
			Workers:       *workers,
			FailureBudget: *failureBudget,
		},
	}
	space, err := api.ParseSpaceFlags(*algorithms, axes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(2)
	}
	req.Space = space
	vehicle, err := api.ParseVehicleFlags(*vehicleAxes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(2)
	}
	req.Vehicle = vehicle
	gridMode := *gridWorkers > 0 || *gridListen != ""
	if gridMode {
		req.Grid = &api.GridSpec{
			Workers:     *gridWorkers,
			BatchSize:   *gridBatch,
			LeaseTTLMS:  gridLeaseTTL.Milliseconds(),
			HeartbeatMS: gridHeartbeat.Milliseconds(),
			MaxLeases:   *gridMaxLeases,
			MaxAttempts: *gridMaxAttempts,
		}
		if *gridWorkers == 0 {
			// External-worker mode: the normalized default (3) is only a
			// sizing hint, the coordinator serves however many connect.
			req.Grid.Workers = 1
		}
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(2)
	}
	if *gridListen != "" && *dbPath != "" {
		fmt.Fprintln(os.Stderr, "dse: -db is unsupported with -grid-listen: external grid workers rebuild the built-in surrogate database")
		os.Exit(2)
	}

	var db *airlearning.Database
	if *dbPath != "" {
		loaded, err := airlearning.Load(*dbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dse:", err)
			os.Exit(1)
		}
		db = loaded
	} else {
		db = airlearning.NewDatabase()
		airlearning.PopulateSurrogate(db)
	}

	run, err := obsFlags.Start("dse")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse:", err)
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
	for k, v := range req.ManifestSeeds() {
		run.SetSeed(k, v)
	}
	for k, v := range req.ManifestConfig() {
		run.SetConfig(k, v)
	}

	p2, err := req.Phase2Request(db)
	if err != nil {
		finish(err)
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
	p2.Obs = run.Obs
	fmt.Printf("design space: %d joint points; exploring %d candidates with %d+%d evaluations\n",
		p2.Space.Size(), p2.Config.CandidatePool, p2.Config.BO.InitSamples, p2.Config.BO.Iterations)

	// Grid mode: the optimizer loop stays in this process; every design
	// evaluation is delegated to the coordinator's lease pool and scored by
	// grid workers — in-process goroutines here, external gridworker
	// processes via -grid-listen. Grid status goes to stderr so stdout stays
	// byte-comparable with a single-process run.
	gridShutdown := func() {}
	if gridMode {
		cfg := grid.ConfigFromSpec(req.Normalized().Grid)
		cfg.Obs = run.Obs
		coord := grid.NewCoordinator(req, cfg)
		addr := *gridListen
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, lerr := net.Listen("tcp", addr)
		if lerr != nil {
			finish(lerr)
			fmt.Fprintln(os.Stderr, "dse:", lerr)
			os.Exit(1)
		}
		// The grid listener also serves live telemetry: the standard debug
		// tree, plus a Prometheus exposition that merges this process's
		// registry with the fleet's per-worker-labeled series.
		mux := http.NewServeMux()
		mux.Handle("/", coord.Handler())
		mux.Handle("/debug/", obs.DebugMux(run.Obs.Metrics))
		mux.Handle("/debug/prometheus", obs.PrometheusHandler(func() []obs.Snapshot {
			return []obs.Snapshot{run.Obs.Metrics.Snapshot(), coord.Fleet().Labeled()}
		}))
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // closed on shutdown
		url := "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "dse: grid coordinator listening on %s\n", url)
		p2.Delegate = coord.Evaluate
		var wg sync.WaitGroup
		for i := 0; i < *gridWorkers; i++ {
			id := fmt.Sprintf("w%d", i)
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				wcfg := grid.WorkerConfig{
					URL: url, ID: id, DB: db,
					// Each in-process worker gets its own registry so the
					// fleet endpoint and manifest attribute metrics per
					// worker exactly as with external worker processes.
					Obs: &obs.Observer{Metrics: obs.NewRegistry()},
				}
				if werr := grid.Run(ctx, wcfg); werr != nil && ctx.Err() == nil {
					fmt.Fprintf(os.Stderr, "dse: grid worker %s: %v\n", id, werr)
				}
			}(id)
		}
		gridShutdown = func() {
			// Close the job table first so workers see Done on their next
			// lease or heartbeat and exit cleanly; only then tear the
			// listener down.
			coord.Close()
			wg.Wait()
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort drain
			run.SetGrid(coord.Manifest())
		}
	}

	res, err := dse.Execute(ctx, p2)
	gridShutdown()
	if err != nil {
		finish(err)
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}

	run.AddFailures(fault.Records(res.Failures)...)
	if len(res.Failures) > 0 {
		fmt.Fprintf(os.Stderr, "dse: %d evaluation(s) failed within the %.0f%% budget:\n%s\n",
			len(res.Failures), 100**failureBudget, fault.Summarize(res.Failures))
	}
	if len(res.Skips) > 0 {
		fmt.Printf("\ninfeasible loadouts skipped (%d):\n", len(res.Skips))
		for _, s := range res.Skips {
			fmt.Printf("  %-44s %s: %s\n", s.Design, s.Reason, s.Detail)
		}
	}
	fmt.Printf("\nPareto frontier (%d of %d evaluated designs):\n", len(res.ParetoIdx), len(res.Evaluated))
	fmt.Printf("%-44s %8s %8s %8s %8s\n", "design", "success", "FPS", "SoC W", "FPS/W")
	for _, e := range res.Pareto() {
		fmt.Printf("%-44s %7.0f%% %8.1f %8.2f %8.1f\n",
			e.Design.String(), 100*e.SuccessRate, e.FPS, e.SoCPowerW, e.EfficiencyFPSW())
	}
	fmt.Println("\nconventional-DSE picks (top-success designs):")
	for _, pick := range []struct {
		name string
		idx  int
	}{{"HT", res.HT}, {"LP", res.LP}, {"HE", res.HE}} {
		if pick.idx < 0 {
			continue
		}
		e := res.Evaluated[pick.idx]
		fmt.Printf("  %-2s  %-44s %6.1f FPS %6.2f W %6.1f FPS/W\n",
			pick.name, e.Design.String(), e.FPS, e.SoCPowerW, e.EfficiencyFPSW())
	}
	finish(nil)
}
