package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/grid"
	"autopilot/internal/obs"
	"autopilot/internal/power"
	"autopilot/internal/uav"
)

// workload is one benchmark input family. Every job is one co-design caller
// request run to completion; the loop runs them back to back (a closed loop
// with one client).
type workload struct {
	name string
	// jobSeed derives job k's request seed from the workload seed.
	jobSeed func(seed int64, k int) int64
	// run executes one job; tr is nil for untraced runs.
	run func(ctx context.Context, e *env, seed int64, tr *jobTrace) (*outcome, error)
	// grid marks the workload whose set-up serves the grid coordinator.
	grid bool
}

// env is what set-up builds once per run.
type env struct {
	db   *airlearning.Database // surrogate Phase-1 database
	grid *gridEndpoint         // loopback coordinator endpoint; dse-grid only
}

func (e *env) close() {
	if e.grid != nil {
		e.grid.close()
	}
}

// outcome is one job's answer plus what its checks and replays need.
type outcome struct {
	res   *dse.Result
	rep   *core.Report // codesign jobs only
	db    *airlearning.Database
	space dse.Space
	scen  airlearning.Scenario
	pm    power.Model
	// bayes marks a Bayesian Phase 2; nInit and nIter are its budgets, so
	// res.Evaluated[:nInit+nIter] is what the optimizer itself evaluated.
	bayes        bool
	nInit, nIter int
}

// frontierRef is the fixed hypervolume reference point of every workload:
// the SoC-only objective box dse scores against (-success, SoC W, runtime s).
var frontierRef = []float64{0, 30, 1}

// deriveSeed maps (workload seed, job index) to a positive request seed with
// a splitmix64 step, so neighbouring workload seeds share no job seeds.
func deriveSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z%1_000_000) + 1
}

// basketSeeds is the job-seed rotation of the Bayesian workloads: request
// seeds 1, 2 and 3 in turn, starting at an offset the workload seed picks.
// An SMS-EGO job's cost follows its seed's trajectory (a default job takes
// 4-10 s over seeds, twice the spread any run of a few jobs could average
// out), so these runs cycle one fixed basket; each run's median job is the
// basket's middle one, whatever the job count.
func basketSeeds(seed int64, k int) int64 {
	return 1 + int64((uint64(seed)+uint64(k))%3)
}

var workloads = []*workload{
	{name: "codesign-default", jobSeed: basketSeeds, run: runCodesign(false)},
	{name: "sweep-random", jobSeed: deriveSeed, run: runSweep},
	{name: "codesign-train", jobSeed: basketSeeds, run: runCodesign(true)},
	{name: "dse-grid", jobSeed: basketSeeds, run: runGrid, grid: true},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setup builds the run's environment: the surrogate database and, for the
// grid workload, the loopback listener with both worker connections open.
func setup(w *workload) (*env, error) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	e := &env{db: db}
	if w.grid {
		g, err := startGrid(gridRequest(1))
		if err != nil {
			return nil, err
		}
		e.grid = g
	}
	return e, nil
}

// codesignRequest is the paper's default query; with train it is the
// `autopilot -train -pool 512 -bo-iters 24` query.
func codesignRequest(seed int64, train bool) api.CoDesignRequest {
	req := api.CoDesignRequest{UAVClass: "nano", Scenario: "dense", Seed: seed}
	if train {
		req.Train = &api.TrainSpec{Episodes: 150}
		req.Constraints.CandidatePool = 512
		req.Constraints.BOIterations = 24
	}
	return req
}

func runCodesign(train bool) func(context.Context, *env, int64, *jobTrace) (*outcome, error) {
	return func(ctx context.Context, _ *env, seed int64, tr *jobTrace) (*outcome, error) {
		req := codesignRequest(seed, train)
		spec, err := req.Spec()
		if err != nil {
			return nil, err
		}
		var rep *core.Report
		if tr == nil {
			rep, err = core.Run(ctx, spec)
		} else {
			rep, err = tr.codesign(ctx, req, spec)
		}
		if err != nil {
			return nil, err
		}
		bo := spec.Phase2.BO
		return &outcome{res: rep.Phase2, rep: rep, db: rep.Database, space: spec.Space,
			scen: spec.Scenario, pm: spec.PowerModel, bayes: true,
			nInit: bo.InitSamples, nIter: bo.Iterations}, nil
	}
}

// sweepRequest is dse's random optimizer over the Table II space: 16384
// sampled designs, no model-guided iterations, probe corners on.
func sweepRequest(db *airlearning.Database, seed int64) (dse.Request, error) {
	req := api.CoDesignRequest{Scenario: "dense", Seed: seed}
	p2, err := req.Phase2Request(db)
	if err != nil {
		return dse.Request{}, err
	}
	p2.Optimizer = dse.OptRandom
	p2.Config.BO.InitSamples = 16384
	p2.Config.BO.Iterations = 0
	return p2, nil
}

func runSweep(ctx context.Context, e *env, seed int64, tr *jobTrace) (*outcome, error) {
	p2, err := sweepRequest(e.db, seed)
	if err != nil {
		return nil, err
	}
	res, err := tr.execute(ctx, p2)
	if err != nil {
		return nil, err
	}
	return dseOutcome(res, p2, false), nil
}

func dseOutcome(res *dse.Result, p2 dse.Request, bayes bool) *outcome {
	return &outcome{res: res, db: p2.DB, space: p2.Space, scen: p2.Scenario, pm: p2.Power,
		bayes: bayes, nInit: p2.Config.BO.InitSamples, nIter: p2.Config.BO.Iterations}
}

// gridRequest is `dse -pool 512 -iters 24 -grid-workers 2`.
func gridRequest(seed int64) api.CoDesignRequest {
	return api.CoDesignRequest{Scenario: "dense", Seed: seed,
		Constraints: api.Constraints{CandidatePool: 512, BOIterations: 24},
		Grid:        &api.GridSpec{Workers: 2}}
}

// runGrid runs one Phase-2 sweep with every uncached evaluation leased to two
// in-process grid workers over the run's loopback connections.
func runGrid(ctx context.Context, e *env, seed int64, tr *jobTrace) (*outcome, error) {
	req := gridRequest(seed)
	p2, err := req.Phase2Request(e.db)
	if err != nil {
		return nil, err
	}
	coord := grid.NewCoordinator(req, grid.ConfigFromSpec(req.Normalized().Grid))
	var handler http.Handler = coord.Handler()
	p2.Delegate = coord.Evaluate
	if tr != nil {
		handler = tr.rpcs.wrap(handler)
		p2.Delegate = tr.evals.wrap(coord.Evaluate)
	}
	e.grid.serve(handler)
	defer e.grid.serve(nil)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, len(e.grid.clients))
	for i, client := range e.grid.clients {
		cfg := grid.WorkerConfig{URL: e.grid.url, ID: fmt.Sprintf("w%d", i), DB: e.db, Client: client}
		if tr != nil {
			cfg.Obs = &obs.Observer{Metrics: tr.workerRegs[i]}
		}
		wg.Add(1)
		go func(i int, cfg grid.WorkerConfig) {
			defer wg.Done()
			werrs[i] = grid.Run(wctx, cfg)
		}(i, cfg)
	}
	res, err := tr.executeDelegated(ctx, p2)
	coord.Close()
	if err != nil {
		cancel()
	}
	wg.Wait()
	if tr != nil {
		tr.gridManifest = coord.Manifest()
	}
	if err != nil {
		return nil, err
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("grid worker w%d: %w", i, werr)
		}
	}
	return dseOutcome(res, p2, true), nil
}

// runGridLocal is runGrid's sweep for the same seed without a delegate: the
// reference the grid frontier must match bitwise.
func runGridLocal(ctx context.Context, e *env, seed int64) (*dse.Result, error) {
	p2, err := gridRequest(seed).Phase2Request(e.db)
	if err != nil {
		return nil, err
	}
	return dse.Execute(ctx, p2)
}

// gridEndpoint is the loopback HTTP listener serving the current job's
// coordinator, plus one HTTP client (one keep-alive connection) per worker.
type gridEndpoint struct {
	url     string
	srv     *http.Server
	served  chan struct{}
	handler atomic.Pointer[http.Handler]
	clients [2]*http.Client
}

// startGrid opens the listener and completes one hello per worker client
// against a bootstrap coordinator, so both connections exist before the
// first job.
func startGrid(req api.CoDesignRequest) (*gridEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("grid listener: %w", err)
	}
	g := &gridEndpoint{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	g.srv = &http.Server{Handler: http.HandlerFunc(g.dispatch), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	boot := grid.NewCoordinator(req, grid.ConfigFromSpec(req.Normalized().Grid))
	defer boot.Close()
	g.serve(boot.Handler())
	defer g.serve(nil)
	for i := range g.clients {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.Proxy = nil
		g.clients[i] = &http.Client{Timeout: 30 * time.Second, Transport: tr}
		resp, err := g.clients[i].Get(g.url + grid.PathHello)
		if err == nil {
			err = drain(resp)
		}
		if err != nil {
			g.close()
			return nil, fmt.Errorf("grid hello: %w", err)
		}
	}
	return g, nil
}

func (g *gridEndpoint) serve(h http.Handler) {
	if h == nil {
		g.handler.Store(nil)
		return
	}
	g.handler.Store(&h)
}

func (g *gridEndpoint) dispatch(w http.ResponseWriter, r *http.Request) {
	h := g.handler.Load()
	if h == nil {
		http.Error(w, "no sweep in progress", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

func (g *gridEndpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.srv.Shutdown(ctx); err != nil {
		g.srv.Close()
	}
	<-g.served
	for _, c := range g.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// check verifies one job's output and returns its frontier digest, frontier
// hypervolume and mission count. The checks are written against the
// definitions, not against the library routines they check.
func check(ctx context.Context, o *outcome) (digest string, hv, missions float64, err error) {
	front := o.res.Pareto()
	if len(front) == 0 {
		return "", 0, 0, fmt.Errorf("empty frontier")
	}
	onFront := map[int]bool{}
	for _, i := range o.res.ParetoIdx {
		onFront[i] = true
	}
	for i, f := range front {
		for j, g := range front {
			if i != j && dominates(g.Objectives(), f.Objectives()) {
				return "", 0, 0, fmt.Errorf("frontier design %s dominated by frontier design %s", f.Design, g.Design)
			}
		}
	}
	for i, x := range o.res.Evaluated {
		xo := x.Objectives()
		covered := onFront[i]
		for _, f := range front {
			fo := f.Objectives()
			if dominates(xo, fo) {
				return "", 0, 0, fmt.Errorf("evaluated design %s dominates frontier design %s", x.Design, f.Design)
			}
			covered = covered || dominates(fo, xo)
		}
		if !covered {
			return "", 0, 0, fmt.Errorf("non-dominated design %s missing from the frontier", x.Design)
		}
	}

	fresh := dse.NewEvaluator(o.db, o.scen, o.pm, dse.WithTemplate(o.space.Template), dse.WithWorkers(1))
	const sample = 4
	for s := 0; s < sample && s < len(front); s++ {
		want := front[s*len(front)/sample]
		got, err := fresh.Evaluate(want.Design)
		if err != nil {
			return "", 0, 0, fmt.Errorf("re-score %s: %w", want.Design, err)
		}
		if evalDigest([]dse.Evaluated{got}) != evalDigest([]dse.Evaluated{want}) {
			return "", 0, 0, fmt.Errorf("re-scored %s differs from the frontier entry", want.Design)
		}
	}

	rep := o.rep
	if rep == nil {
		// Phase-2-only workloads: run the Phase-3 selection on their frontier
		// so every workload reports a mission count.
		rep, err = core.Phase3(ctx, core.DefaultSpec(uav.ZhangNano(), o.scen), o.res)
		if err != nil {
			return "", 0, 0, fmt.Errorf("phase 3: %w", err)
		}
	}
	if !rep.Selected.Liftable || rep.Selected.Missions() <= 0 {
		return "", 0, 0, fmt.Errorf("selected design %s flies no missions", rep.Selected.Design.Design)
	}
	return evalDigest(front), hypervolume(front), rep.Selected.Missions(), nil
}

// dominates is Pareto dominance under minimization, from its definition.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		strict = strict || a[i] < b[i]
	}
	return strict
}

// hypervolume scores a frontier against frontierRef. It is computed here from
// the definition, not with pareto.Hypervolume, because that routine is one of
// the kernels the benchmark times and the optimizer depends on: a wrong change
// to it must not also move the figure that judges the optimizer.
func hypervolume(front []dse.Evaluated) float64 {
	objs := make([][]float64, len(front))
	for i, e := range front {
		objs[i] = e.Objectives()
	}
	return boxUnionVolume(objs, frontierRef)
}

// boxUnionVolume is the volume of the union of the boxes [p, ref] over points
// p (minimization; a point not strictly inside ref in every objective spans
// no volume). It slices along the last objective: between consecutive values
// of it, the cross-section is the union of the boxes of the points at or below
// the slice, one dimension down. O(n^d log n), ample for fronts of < 100
// points in three objectives.
func boxUnionVolume(points [][]float64, ref []float64) float64 {
	d := len(ref)
	var in [][]float64
	for _, p := range points {
		inside := true
		for k := 0; k < d; k++ {
			inside = inside && p[k] < ref[k]
		}
		if inside {
			in = append(in, p)
		}
	}
	if len(in) == 0 {
		return 0
	}
	if d == 1 {
		lo := in[0][0]
		for _, p := range in {
			lo = math.Min(lo, p[0])
		}
		return ref[0] - lo
	}
	sort.Slice(in, func(i, j int) bool { return in[i][d-1] < in[j][d-1] })
	vol := 0.0
	for i, p := range in {
		top := ref[d-1]
		if i+1 < len(in) {
			top = in[i+1][d-1]
		}
		if top > p[d-1] {
			vol += (top - p[d-1]) * boxUnionVolume(in[:i+1], ref[:d-1])
		}
	}
	return vol
}

// evalDigest fingerprints designs and the exact bits of their scores.
func evalDigest(es []dse.Evaluated) string {
	h := sha256.New()
	for _, e := range es {
		fmt.Fprintf(h, "%s|%x|%x|%x|%x|%x\n", e.Design,
			math.Float64bits(e.SuccessRate), math.Float64bits(e.FPS), math.Float64bits(e.RuntimeSec),
			math.Float64bits(e.SoCPowerW), math.Float64bits(e.AccelPowerW))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// drain reads and closes a response body, failing on a non-200 status.
func drain(resp *http.Response) error {
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
