package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/grid"
	"autopilot/internal/obs"
	"autopilot/internal/train"
)

// jobTrace records one traced job from the benchmark's side of the public
// seams: phase calls are timed, the dse evaluation delegate and the grid
// handler are wrapped, and the pipeline's own obs registry is snapshotted.
// Every method is safe on a nil *jobTrace, which runs the job untraced.
type jobTrace struct {
	origin   time.Time
	reg      *obs.Registry
	observer *obs.Observer

	p1, p2, p3 interval // phase windows; p1 and p3 stay empty for Phase-2-only jobs

	evals evalRecorder
	rpcs  rpcRecorder

	workerRegs   [2]*obs.Registry
	gridManifest *obs.GridManifest

	mu      sync.Mutex
	runSecs []float64 // wall seconds of each Phase-1 training run
}

func newJobTrace() *jobTrace {
	tr := &jobTrace{origin: time.Now(), reg: obs.NewRegistry()}
	tr.evals.origin = tr.origin
	tr.observer = &obs.Observer{Metrics: tr.reg, Events: obs.EventFunc(func(e obs.Event) {
		if p, ok := e.Payload.(train.Progress); ok && p.Done {
			tr.mu.Lock()
			tr.runSecs = append(tr.runSecs, p.Elapsed.Seconds())
			tr.mu.Unlock()
		}
	})}
	for i := range tr.workerRegs {
		tr.workerRegs[i] = obs.NewRegistry()
	}
	return tr
}

func (tr *jobTrace) now() float64 { return time.Since(tr.origin).Seconds() }

// codesign is core.Run with each phase timed. core.Spec has no delegate, so
// Phase 2 runs the dse.Request core.Phase2 builds, with the recording
// delegate added.
func (tr *jobTrace) codesign(ctx context.Context, req api.CoDesignRequest, spec core.Spec) (*core.Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.Obs = tr.observer
	start := tr.now()
	db, p1, err := core.Phase1Report(ctx, spec)
	tr.p1 = interval{start, tr.now()}
	if err != nil {
		return nil, fmt.Errorf("phase 1: %w", err)
	}
	res, err := tr.execute(ctx, dse.Request{
		Space:         spec.Space,
		DB:            db,
		Scenario:      spec.Scenario,
		Power:         spec.PowerModel,
		Config:        spec.Phase2,
		Workers:       spec.Workers,
		Vehicle:       dse.VehicleParams{Mission: spec.Mission, Params: spec.MissionParams, Thermal: spec.Thermal},
		Retry:         req.Normalized().Constraints.RetryPolicy(),
		JobTimeout:    spec.JobTimeout,
		FailureBudget: spec.FailureBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("phase 2: %w", err)
	}
	start = tr.now()
	rep, err := core.Phase3(ctx, spec, res)
	tr.p3 = interval{start, tr.now()}
	if err != nil {
		return nil, fmt.Errorf("phase 3: %w", err)
	}
	rep.Database, rep.Phase1 = db, p1
	return rep, nil
}

// execute runs a Phase-2 request. Traced, every uncached evaluation goes
// through a local evaluator of the same request, wrapped by the interval
// recorder.
func (tr *jobTrace) execute(ctx context.Context, p2 dse.Request) (*dse.Result, error) {
	if tr == nil {
		return dse.Execute(ctx, p2)
	}
	p2.Delegate = tr.evals.wrap(p2.NewEvaluator().EvaluateContext)
	return tr.executeDelegated(ctx, p2)
}

// executeDelegated runs a Phase-2 request whose delegate is already set,
// timing the call and instrumenting it when traced.
func (tr *jobTrace) executeDelegated(ctx context.Context, p2 dse.Request) (*dse.Result, error) {
	if tr == nil {
		return dse.Execute(ctx, p2)
	}
	p2.Obs = tr.observer
	start := tr.now()
	res, err := dse.Execute(ctx, p2)
	tr.p2 = interval{start, tr.now()}
	return res, err
}

// evalRecorder wraps an evaluation delegate and keeps each call's interval.
type evalRecorder struct {
	origin time.Time
	mu     sync.Mutex
	ivs    []interval
}

type evalFunc = func(context.Context, dse.DesignPoint) (dse.Evaluated, error)

func (r *evalRecorder) wrap(fn evalFunc) evalFunc {
	return func(ctx context.Context, d dse.DesignPoint) (dse.Evaluated, error) {
		start := time.Since(r.origin).Seconds()
		e, err := fn(ctx, d)
		iv := interval{start, time.Since(r.origin).Seconds()}
		r.mu.Lock()
		r.ivs = append(r.ivs, iv)
		r.mu.Unlock()
		return e, err
	}
}

// sorted returns the recorded intervals in start order.
func (r *evalRecorder) sorted() []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	ivs := append([]interval(nil), r.ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	return ivs
}

// rpcCall is one grid RPC as the coordinator's handler served it.
type rpcCall struct {
	path       string
	seconds    float64
	bytes      int64 // request plus response payload
	emptyLease bool
}

// rpcRecorder wraps the coordinator's handler and keeps every call.
type rpcRecorder struct {
	mu    sync.Mutex
	calls []rpcCall
}

func (r *rpcRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		if req.URL.Path == grid.PathLease {
			cw.body = &bytes.Buffer{}
		}
		start := time.Now()
		h.ServeHTTP(cw, req)
		c := rpcCall{path: req.URL.Path, seconds: time.Since(start).Seconds(), bytes: cw.n}
		if req.ContentLength > 0 {
			c.bytes += req.ContentLength
		}
		if cw.body != nil {
			var lr grid.LeaseResponse
			c.emptyLease = json.Unmarshal(cw.body.Bytes(), &lr) == nil && len(lr.Jobs) == 0 && !lr.Done
		}
		r.mu.Lock()
		r.calls = append(r.calls, c)
		r.mu.Unlock()
	})
}

// countingWriter counts response payload bytes and, for lease calls, keeps
// the body so empty grants can be told apart.
type countingWriter struct {
	http.ResponseWriter
	n    int64
	body *bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	if w.body != nil {
		w.body.Write(p[:n])
	}
	return n, err
}

// phase2Split partitions a Phase-2 window [lo, hi] by the evaluation
// intervals in start order: the first nInit form the initial batch, the next
// nIter the model-guided iterations, and the rest the probe sweep.
// Overlapping evaluations count once.
type phase2Split struct {
	sample   float64 // before the first evaluation: sampling and features
	initWall float64 // the initial batch, first start to last end
	initGaps float64 // initial-batch wall no evaluation covered
	boSelf   float64 // optimizer time between the batch and the last iteration
	post     float64 // after the last iteration, less probe evaluations
	evals    float64 // union of all evaluation intervals
	iterGaps []float64
}

func splitPhase2(lo, hi float64, ivs []interval, nInit, nIter int) phase2Split {
	if len(ivs) == 0 {
		return phase2Split{sample: hi - lo}
	}
	nInit = min(nInit, len(ivs))
	nIter = min(nIter, len(ivs)-nInit)
	first := ivs[0].start
	initEnd := first
	for _, iv := range ivs[:nInit] {
		initEnd = math.Max(initEnd, iv.end)
	}
	var gaps []float64
	lastIter := initEnd
	for _, iv := range ivs[nInit : nInit+nIter] {
		gaps = append(gaps, iv.start-lastIter)
		lastIter = iv.end
	}
	return phase2Split{
		sample:   first - lo,
		initWall: initEnd - first,
		initGaps: selfTime(interval{first, initEnd}, ivs),
		boSelf:   selfTime(interval{initEnd, lastIter}, ivs),
		post:     selfTime(interval{lastIter, hi}, ivs),
		evals:    unionWithin(ivs, lo, hi),
		iterGaps: gaps,
	}
}

// other is the Phase-2 time outside evaluation and the optimizer.
func (s phase2Split) other() float64 { return s.sample + s.initGaps + s.post }

// layers derives one traced job's per-layer figures. It fails when the
// layer times and residuals do not add up to the phase wall time.
func (tr *jobTrace) layers(o *outcome, wall float64) (map[string]float64, error) {
	m := map[string]float64{
		"core.phase1_s": tr.p1.len(),
		"core.phase2_s": tr.p2.len(),
		"core.phase3_s": tr.p3.len(),
	}
	m["core.unattributed_s"] = residual(wall, tr.p1.len(), tr.p2.len(), tr.p3.len())

	ivs := tr.evals.sorted()
	nInit, nIter := o.nInit, o.nIter
	if !o.bayes {
		nInit, nIter = nInit+nIter, 0
	}
	sp := splitPhase2(tr.p2.start, tr.p2.end, ivs, nInit, nIter)
	if gap := residual(tr.p2.len(), sp.evals, sp.boSelf, sp.other()); math.Abs(gap) > 1e-6 {
		return nil, fmt.Errorf("phase-2 attribution leaves %.3g s unexplained", gap)
	}
	snap := tr.reg.Snapshot()
	count := func(name string) float64 { return float64(snap.Counters[name]) }
	if o.bayes {
		m["bayesopt.init_s"] = sp.initWall
		m["bayesopt.iter_ms"] = 1e3 * median(sp.iterGaps)
		m["bayesopt.self_s"] = sp.boSelf
		m["bayesopt.iterations"] = count("bo.iterations")
	}
	durs := make([]float64, len(ivs))
	for i, iv := range ivs {
		durs[i] = iv.len()
	}
	lookups := count("dse.cache.hits") + count("dse.cache.misses")
	m["dse.sample_ms"] = 1e3 * sp.sample
	m["dse.post_ms"] = 1e3 * sp.post
	m["dse.other_s"] = sp.other()
	m["dse.evals"] = float64(len(ivs))
	m["dse.eval_us"] = 1e6 * median(durs)
	if p := tailPercentile(len(durs)); p > 0 {
		m["dse.eval_tail_pct"] = p
		m["dse.eval_tail_us"] = 1e6 * percentile(durs, p)
	}
	m["dse.eval_busy_frac"] = ratio(sp.evals, tr.p2.len())
	m["dse.cache_lookups"] = lookups
	m["dse.cache_hit_ratio"] = ratio(count("dse.cache.hits"), lookups)
	m["dse.skips"] = float64(len(o.res.Skips))

	m["train.env_steps"] = count("train.env_steps")
	m["train.eval_env_steps"] = count("train.eval.env_steps")
	m["nn.forward_batch_inputs"] = count("nn.forward_batch.inputs")
	tr.mu.Lock()
	m["train.run_s"] = median(tr.runSecs)
	m["train.run_s_max"] = percentile(tr.runSecs, 100)
	tr.mu.Unlock()
	// The pool's own idle counter stops at its last item, so occupancy is
	// taken against every CPU for the whole job.
	m["pool.busy_frac"] = ratio(count("pool.busy_ns")/1e9, float64(runtime.NumCPU())*wall)

	if tr.gridManifest != nil {
		tr.gridLayers(m, durs)
	}
	return m, nil
}

// gridLayers derives the grid figures from the job round trips (rtts), the
// served RPCs, the workers' estimate histograms and the coordinator's
// manifest.
func (tr *jobTrace) gridLayers(m map[string]float64, rtts []float64) {
	tr.rpcs.mu.Lock()
	calls := append([]rpcCall(nil), tr.rpcs.calls...)
	tr.rpcs.mu.Unlock()
	var served []float64
	var handler, wire, leases, empty float64
	for _, c := range calls {
		wire += float64(c.bytes)
		if c.path == grid.PathHello {
			continue
		}
		served = append(served, c.seconds)
		handler += c.seconds
		if c.path == grid.PathLease {
			leases++
			if c.emptyLease {
				empty++
			}
		}
	}
	var evalSum float64
	for _, reg := range tr.workerRegs {
		evalSum += reg.Snapshot().Histograms["hw.estimate_seconds"].Sum
	}
	jobs := float64(len(rtts))
	rttSum := 0.0
	for _, r := range rtts {
		rttSum += r
	}
	m["grid.job_rtt_ms"] = 1e3 * median(rtts)
	m["grid.rpc_server_us"] = 1e6 * median(served)
	m["grid.rpcs_per_job"] = ratio(float64(len(served)), jobs)
	m["grid.empty_lease_frac"] = ratio(empty, leases)
	m["grid.wire_kb"] = ratio(wire/1024, jobs)
	m["grid.wait_ms"] = 1e3 * ratio(rttSum-evalSum-handler, jobs)
	for _, w := range tr.gridManifest.Workers {
		m["grid.steals"] += float64(w.Steals)
		m["grid.reclaims"] += float64(w.Reclaims)
	}
}

// ratio is num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianMaps reduces per-job figure maps to the median of each key.
func medianMaps(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}
