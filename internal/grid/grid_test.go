package grid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/api"
	"autopilot/internal/catalog"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// tinyRequest is a sweep small enough to run many times per test binary but
// large enough to exercise the init-batch fan-out and the sequential BO tail.
func tinyRequest() api.CoDesignRequest {
	return api.CoDesignRequest{
		Scenario: "dense",
		Constraints: api.Constraints{
			CandidatePool: 192,
			BOIterations:  6,
			Workers:       2,
		},
	}
}

func surrogateDB() *airlearning.Database {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	return db
}

// render hex-dumps every result field the sweep's consumers read, so two
// renders comparing equal means bitwise-identical results.
func render(res *dse.Result) string {
	var b strings.Builder
	for _, e := range res.Evaluated {
		fmt.Fprintf(&b, "%s %x %x %x %x %x\n",
			e.Design, e.SuccessRate, e.FPS, e.RuntimeSec, e.SoCPowerW, e.AccelPowerW)
	}
	fmt.Fprintf(&b, "pareto %v picks %d %d %d\n", res.ParetoIdx, res.HT, res.LP, res.HE)
	for _, s := range res.Skips {
		fmt.Fprintf(&b, "skip %s %s\n", s.Design, s.Reason)
	}
	return b.String()
}

// runLocal executes the sweep single-process.
func runLocal(t *testing.T, req api.CoDesignRequest) *dse.Result {
	t.Helper()
	p2, err := req.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dse.Execute(context.Background(), p2)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runGrid executes the sweep through a coordinator with n in-process workers
// customized by mutate (nil keeps defaults). Returns the result and the
// coordinator's metrics registry.
func runGrid(t *testing.T, req api.CoDesignRequest, cfg Config, n int, mutate func(i int, wc *WorkerConfig)) (*dse.Result, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Observer{Metrics: reg}
	coord := NewCoordinator(req, cfg)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := WorkerConfig{URL: ts.URL, ID: fmt.Sprintf("w%d", i), DB: surrogateDB(), Poll: 5 * time.Millisecond}
		if mutate != nil {
			mutate(i, &wc)
		}
		wg.Add(1)
		go func(wc WorkerConfig) {
			defer wg.Done()
			if err := Run(ctx, wc); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", wc.ID, err)
			}
		}(wc)
	}

	p2, err := req.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	p2.Delegate = coord.Evaluate
	res, err := dse.Execute(context.Background(), p2)
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res, reg
}

// TestGridBitwiseParity is the package's core guarantee: a sweep sharded
// over the grid — at any worker count — reconverges bitwise to the
// single-process run.
func TestGridBitwiseParity(t *testing.T) {
	req := tinyRequest()
	want := render(runLocal(t, req))
	for _, n := range []int{1, 3} {
		res, _ := runGrid(t, req, Config{}, n, nil)
		if got := render(res); got != want {
			t.Errorf("grid result at %d workers diverged from single-process run:\ngrid:\n%s\nlocal:\n%s", n, got, want)
		}
	}
}

// captureFirstJob drives the coordinator directly (same-package access) as a
// worker that leases the first available job and never delivers it — the
// deterministic stand-in for a worker that crashed (or stalled) mid-job.
func captureFirstJob(t *testing.T, c *Coordinator, worker string) Job {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if lr := c.lease(LeaseRequest{Worker: worker, Max: 1}); len(lr.Jobs) > 0 {
			return lr.Jobs[0]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no job ever became leasable")
	return Job{}
}

// TestGridReclaimFromDeadWorker pins lease-based fault recovery: a worker
// that leases a job and dies without delivering (no heartbeat) loses it at
// the lease TTL, the coordinator re-issues it with the next attempt, and the
// sweep still converges bitwise to the single-process result.
func TestGridReclaimFromDeadWorker(t *testing.T) {
	req := tinyRequest()
	want := render(runLocal(t, req))
	// MaxLeases 1 disables work-stealing, so recovery must come from lease
	// expiry — the path under test.
	cfg := Config{LeaseTTL: 60 * time.Millisecond, MaxLeases: 1, MaxAttempts: 50}
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Observer{Metrics: reg}
	coord := NewCoordinator(req, cfg)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	p2, err := req.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	p2.Delegate = coord.Evaluate
	type out struct {
		res *dse.Result
		err error
	}
	resc := make(chan out, 1)
	go func() {
		res, err := dse.Execute(context.Background(), p2)
		resc <- out{res, err}
	}()

	// The dead worker grabs the sweep's first job before any healthy worker
	// exists, then goes silent.
	captureFirstJob(t, coord, "deadbeat")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Run(ctx, WorkerConfig{URL: ts.URL, ID: "healthy", DB: surrogateDB(), Poll: 5 * time.Millisecond}) //nolint:errcheck
	}()

	o := <-resc
	coord.Close()
	cancel()
	wg.Wait()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := render(o.res); got != want {
		t.Errorf("result with a dead worker diverged:\n%s\nwant:\n%s", got, want)
	}
	if v := reg.Counter("grid.lease.expired").Value(); v == 0 {
		t.Error("dead worker's lease never expired; reclaim path untested")
	}
}

// TestGridStealFromStraggler pins work-stealing: a live worker that leases a
// job, keeps heartbeating, but never finishes it is a straggler; past the
// steal threshold an idle worker gets a duplicate lease, its delivery wins,
// and the merged result is still bitwise identical.
func TestGridStealFromStraggler(t *testing.T) {
	req := tinyRequest()
	want := render(runLocal(t, req))
	cfg := Config{
		LeaseTTL:    10 * time.Second, // never expires: only stealing can recover
		StealAfter:  20 * time.Millisecond,
		MaxLeases:   2,
		MaxAttempts: 50,
	}
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Observer{Metrics: reg}
	coord := NewCoordinator(req, cfg)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	p2, err := req.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	p2.Delegate = coord.Evaluate
	type out struct {
		res *dse.Result
		err error
	}
	resc := make(chan out, 1)
	go func() {
		res, err := dse.Execute(context.Background(), p2)
		resc <- out{res, err}
	}()

	// The straggler grabs the first job and keeps renewing its lease without
	// ever delivering.
	stolen := captureFirstJob(t, coord, "straggler")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			coord.heartbeat(HeartbeatRequest{Worker: "straggler", Jobs: []int64{stolen.ID}})
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		Run(ctx, WorkerConfig{URL: ts.URL, ID: "thief", DB: surrogateDB(), Poll: 5 * time.Millisecond}) //nolint:errcheck
	}()

	o := <-resc
	coord.Close()
	cancel()
	wg.Wait()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := render(o.res); got != want {
		t.Errorf("result with a straggler diverged:\n%s\nwant:\n%s", got, want)
	}
	if v := reg.Counter("grid.lease.stolen").Value(); v == 0 {
		t.Error("no lease was ever stolen; straggler path untested")
	}
}

// directGrant submits one design through Evaluate and returns its granted
// job, driving the coordinator synchronously (no HTTP, no workers).
func directGrant(t *testing.T, c *Coordinator, d dse.DesignPoint, worker string) (Job, chan struct{}, *dse.Evaluated, *error) {
	t.Helper()
	var (
		res  dse.Evaluated
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		res, err = c.Evaluate(context.Background(), d)
	}()
	var lr LeaseResponse
	for i := 0; i < 200; i++ {
		lr = c.lease(LeaseRequest{Worker: worker, Max: 1})
		if len(lr.Jobs) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(lr.Jobs) != 1 {
		t.Fatalf("no lease granted: %+v", lr)
	}
	return lr.Jobs[0], done, &res, &err
}

func testDesign() dse.DesignPoint {
	return dse.DefaultSpace().Sample(1, 1)[0]
}

// TestGridCRCReject pins delivery integrity: a payload whose checksum does
// not match is dropped (the job stays open for re-delivery), and the lease
// survives so the same worker can re-post the correct bytes.
func TestGridCRCReject(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCoordinator(tinyRequest(), Config{Obs: &obs.Observer{Metrics: reg}})
	jb, done, res, errp := directGrant(t, c, testDesign(), "w0")

	payload, _ := json.Marshal(dse.Evaluated{Design: jb.Design, SuccessRate: 0.5, FPS: 30})
	bad := c.result(ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt, CRC: Checksum(payload) + 1, Result: payload})
	if bad.Accepted {
		t.Error("corrupt payload was accepted")
	}
	if v := reg.Counter("grid.result.crc_error").Value(); v != 1 {
		t.Errorf("crc_error = %d, want 1", v)
	}
	select {
	case <-done:
		t.Fatal("job completed from a corrupt delivery")
	default:
	}

	good := c.result(ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt, CRC: Checksum(payload), Result: payload})
	if !good.Accepted || good.Duplicate {
		t.Errorf("valid re-delivery rejected: %+v", good)
	}
	<-done
	if *errp != nil {
		t.Fatal(*errp)
	}
	if res.FPS != 30 {
		t.Errorf("FPS = %v, want 30", res.FPS)
	}
}

// TestGridDuplicateDelivery pins at-least-once semantics: re-posting a
// completed job's result is acknowledged (so the sender stops retrying) but
// discarded, and counted.
func TestGridDuplicateDelivery(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCoordinator(tinyRequest(), Config{Obs: &obs.Observer{Metrics: reg}})
	jb, done, _, _ := directGrant(t, c, testDesign(), "w0")

	payload, _ := json.Marshal(dse.Evaluated{Design: jb.Design, SuccessRate: 0.5})
	post := ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt, CRC: Checksum(payload), Result: payload}
	if r := c.result(post); !r.Accepted || r.Duplicate {
		t.Fatalf("first delivery: %+v", r)
	}
	<-done
	if r := c.result(post); !r.Accepted || !r.Duplicate {
		t.Errorf("second delivery not flagged duplicate: %+v", r)
	}
	if v := reg.Counter("grid.result.duplicate").Value(); v != 1 {
		t.Errorf("duplicate counter = %d, want 1", v)
	}
}

// TestGridStaleRejected pins attempt arbitration: a delivery tagged with an
// attempt rank that was never leased to its sender is rejected outright.
func TestGridStaleRejected(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCoordinator(tinyRequest(), Config{Obs: &obs.Observer{Metrics: reg}})
	jb, done, _, _ := directGrant(t, c, testDesign(), "w0")

	payload, _ := json.Marshal(dse.Evaluated{Design: jb.Design})
	stale := c.result(ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt + 7, CRC: Checksum(payload), Result: payload})
	if stale.Accepted || !stale.Stale {
		t.Errorf("never-issued attempt accepted: %+v", stale)
	}
	wrongWorker := c.result(ResultPost{Worker: "impostor", Job: jb.ID, Attempt: jb.Attempt, CRC: Checksum(payload), Result: payload})
	if wrongWorker.Accepted || !wrongWorker.Stale {
		t.Errorf("impostor delivery accepted: %+v", wrongWorker)
	}
	if v := reg.Counter("grid.result.stale").Value(); v != 2 {
		t.Errorf("stale counter = %d, want 2", v)
	}
	c.result(ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt, CRC: Checksum(payload), Result: payload})
	<-done
}

// TestGridErrorRoundTrip pins typed-error reconstruction: an infeasibility
// verdict and its retry bookkeeping survive the wire, so the coordinator-side
// sweep classifies the design exactly as a local evaluation would.
func TestGridErrorRoundTrip(t *testing.T) {
	c := NewCoordinator(tinyRequest(), Config{})
	jb, done, _, errp := directGrant(t, c, testDesign(), "w0")

	orig := &fault.RetryError{Attempts: 3, Last: &catalog.InfeasibleError{
		Loadout: "f250/lipo-2s/mono-vga", Reason: catalog.ReasonThrust, Detail: "needs 1.3x, has 1.1x",
	}}
	r := c.result(ResultPost{Worker: "w0", Job: jb.ID, Attempt: jb.Attempt, Error: encodeError(orig)})
	if !r.Accepted {
		t.Fatalf("error delivery rejected: %+v", r)
	}
	<-done
	err := *errp
	if err == nil {
		t.Fatal("reconstructed evaluation returned nil error")
	}
	var ie *catalog.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("reconstructed error %v is not a *catalog.InfeasibleError", err)
	}
	if ie.Loadout != "f250/lipo-2s/mono-vga" || ie.Reason != catalog.ReasonThrust || ie.Detail != "needs 1.3x, has 1.1x" {
		t.Errorf("verdict fields lost: %+v", ie)
	}
	if got := fault.AttemptsOf(err); got != 3 {
		t.Errorf("AttemptsOf = %d, want 3", got)
	}
}

// TestGridExhaustedAttempts pins the failure backstop: a job nobody ever
// completes fails after MaxAttempts lease issues instead of hanging the
// sweep forever.
func TestGridExhaustedAttempts(t *testing.T) {
	c := NewCoordinator(tinyRequest(), Config{LeaseTTL: 10 * time.Millisecond, MaxAttempts: 2})
	_, done, _, errp := directGrant(t, c, testDesign(), "w0")
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-done:
			if *errp == nil || !strings.Contains((*errp).Error(), "exhausted") {
				t.Fatalf("err = %v, want lease-exhaustion error", *errp)
			}
			return
		case <-deadline:
			t.Fatal("job never failed after exhausting attempts")
		default:
			time.Sleep(5 * time.Millisecond)
			c.lease(LeaseRequest{Worker: "w0", Max: 1}) // drive reclaim + re-grant
		}
	}
}

// TestGridJobSeedPlacementIndependence pins the seed-derivation contract:
// a job's chaos seed depends on the design identity and sweep seed only.
func TestGridJobSeedPlacementIndependence(t *testing.T) {
	d := testDesign()
	if JobSeed(d.String(), 1) != JobSeed(d.String(), 1) {
		t.Error("JobSeed is not a pure function")
	}
	if JobSeed(d.String(), 1) == JobSeed(d.String(), 2) {
		t.Error("JobSeed ignores the sweep seed")
	}
	other := dse.DefaultSpace().Sample(2, 1)[1]
	if JobSeed(d.String(), 1) == JobSeed(other.String(), 1) {
		t.Error("JobSeed ignores the design identity")
	}
}
