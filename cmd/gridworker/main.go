// Command gridworker joins a distributed Phase-2 sweep as one worker
// process: it fetches the co-design request from the coordinator (a cmd/dse
// run started with -grid-listen), rebuilds the exact evaluator a local run
// would use, and evaluates leased design points until the sweep completes.
//
// Usage:
//
//	gridworker -coordinator http://127.0.0.1:7070 [-id w0] [-batch 4]
//	    [-parallel 1] [-chaos-seed 1 -chaos-drop 0.1 -chaos-dup 0.05
//	     -chaos-stale 0.05 -chaos-delay 0.1 -chaos-delay-for 20ms]
//	    [-debug-addr 127.0.0.1:0]
//
// The -chaos-* flags deterministically inject network faults into this
// worker's RPCs (dropped, delayed, duplicated, and stale-attempt
// deliveries); because they corrupt delivery and never payloads, the merged
// sweep result stays bitwise identical to a fault-free run. -debug-addr
// serves the worker's live metrics (including /debug/prometheus in text
// exposition format).
//
// When the coordinator runs with telemetry on, the worker times each
// evaluation and ships the span on that job's result post, and attaches its
// metrics snapshot to heartbeats, so the coordinator's merged trace shows
// this worker's lane and /grid/v1/fleet its metrics. No extra RPCs are sent.
//
// The worker exits 0 when the coordinator reports the sweep done, and
// non-zero when the coordinator stays unreachable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"autopilot/internal/fault"
	"autopilot/internal/grid"
	"autopilot/internal/obs"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:7070")
	id := flag.String("id", fmt.Sprintf("worker-%d", os.Getpid()), "worker id (must be unique per coordinator)")
	batch := flag.Int("batch", 0, "jobs requested per lease call (0 = coordinator default)")
	parallel := flag.Int("parallel", 1, "concurrent evaluations")
	heartbeat := flag.Duration("heartbeat", 0, "lease-renewal period (0 = coordinator's grid block)")
	poll := flag.Duration("poll", 100*time.Millisecond, "idle backoff between empty lease calls")
	chaosSeed := flag.Int64("chaos-seed", 1, "network-chaos decision seed")
	chaosDrop := flag.Float64("chaos-drop", 0, "probability an RPC is dropped on the wire")
	chaosDup := flag.Float64("chaos-dup", 0, "probability an RPC is delivered twice")
	chaosStale := flag.Float64("chaos-stale", 0, "probability a result is re-delivered with a stale attempt rank")
	chaosDelay := flag.Float64("chaos-delay", 0, "probability an RPC is delayed")
	chaosDelayFor := flag.Duration("chaos-delay-for", 20*time.Millisecond, "injected RPC delay duration")
	debugAddr := flag.String("debug-addr", "", "serve live metrics, /debug/prometheus, expvar, and pprof on this HTTP address")
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "gridworker: -coordinator is required")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var net_ *fault.Injector
	if *chaosDrop > 0 || *chaosDup > 0 || *chaosStale > 0 || *chaosDelay > 0 {
		net_ = &fault.Injector{
			Seed:      *chaosSeed,
			DropRate:  *chaosDrop,
			DupRate:   *chaosDup,
			StaleRate: *chaosStale,
			DelayRate: *chaosDelay,
			Delay:     *chaosDelayFor,
		}
	}

	observer := &obs.Observer{Metrics: obs.NewRegistry()}

	if *debugAddr != "" {
		addr, stopDbg, err := obs.ServeDebug(*debugAddr, observer.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridworker:", err)
			os.Exit(1)
		}
		defer stopDbg() //nolint:errcheck // best-effort shutdown
		fmt.Fprintf(os.Stderr, "gridworker: debug endpoint on http://%s/debug/prometheus\n", addr)
	}

	err := grid.Run(ctx, grid.WorkerConfig{
		URL:       *coordinator,
		ID:        *id,
		Batch:     *batch,
		Parallel:  *parallel,
		Heartbeat: *heartbeat,
		Poll:      *poll,
		Net:       net_,
		Obs:       observer,
	})
	if err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "gridworker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gridworker: %s done\n", *id)
}
