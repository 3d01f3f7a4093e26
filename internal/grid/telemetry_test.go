package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// tEvent mirrors one Chrome trace_event object for assertions.
type tEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// exportTrace round-trips a tracer through its JSON export.
func exportTrace(t *testing.T, tr *obs.Tracer) []tEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []tEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	return file.TraceEvents
}

// checkTraceWellFormed pins the merged-trace invariants any run must keep:
// only complete ("X") and metadata ("M") events, non-negative timestamps and
// durations, and process names declared for every non-local pid in use.
func checkTraceWellFormed(t *testing.T, evs []tEvent) map[int]string {
	t.Helper()
	procs := map[int]string{}
	for _, e := range evs {
		switch e.Ph {
		case "M":
			procs[e.PID] = e.Args["name"]
		case "X":
			if e.TS < 0 || e.Dur < 0 {
				t.Errorf("event %q has negative time: ts=%v dur=%v", e.Name, e.TS, e.Dur)
			}
		default:
			t.Errorf("event %q has phase %q, want X or M", e.Name, e.Ph)
		}
	}
	for _, e := range evs {
		if e.Ph == "X" && e.PID != obs.LocalPID {
			if _, ok := procs[e.PID]; !ok {
				t.Errorf("event %q on pid %d, which has no process_name", e.Name, e.PID)
			}
		}
	}
	return procs
}

// runGridTraced runs the sweep through a coordinator with full telemetry
// (tracer + metrics) and n chaos-wrapped workers that each carry their own
// metrics registry, returning everything the assertions need. The returned
// fleet response was captured after all workers flushed but while the server
// was still up.
func runGridTraced(t *testing.T, chaos bool, n int) (*dse.Result, *Coordinator, *obs.Tracer, FleetResponse) {
	t.Helper()
	r := tinyRequest()
	tr := obs.NewTracer()
	cfg := Config{LeaseTTL: 2 * time.Second, MaxAttempts: 50,
		Obs: &obs.Observer{Metrics: obs.NewRegistry(), Trace: tr}}
	coord := NewCoordinator(r, cfg)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wc := WorkerConfig{
			URL: ts.URL, ID: fmt.Sprintf("w%d", i), DB: surrogateDB(),
			Poll: 5 * time.Millisecond,
			Obs:  &obs.Observer{Metrics: obs.NewRegistry()},
		}
		if chaos {
			// Dropped, duplicated and stale-replayed RPCs exercise exactly
			// the faults result arbitration (which spans ride) and
			// latest-wins snapshots must absorb.
			wc.Net = &fault.Injector{
				Seed: 2000 + int64(i), DropRate: 0.15, DupRate: 0.10,
				StaleRate: 0.10, DelayRate: 0.05, Delay: 2 * time.Millisecond,
			}
			wc.Heartbeat = 20 * time.Millisecond // many heartbeats to tamper with
		}
		wg.Add(1)
		go func(wc WorkerConfig) {
			defer wg.Done()
			if err := Run(ctx, wc); err != nil && ctx.Err() == nil {
				t.Errorf("worker %s: %v", wc.ID, err)
			}
		}(wc)
	}

	p2, err := r.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	p2.Delegate = coord.Evaluate
	p2.Obs = cfg.Obs // as cmd/dse wires it: job spans parent the workers' spans
	res, err := dse.Execute(context.Background(), p2)
	coord.Close()
	wg.Wait() // workers flush their final telemetry before the server closes
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + PathFleet)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet FleetResponse
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatalf("fleet endpoint: %v", err)
	}
	return res, coord, tr, fleet
}

// TestGridTelemetryBitwiseParity is the tentpole's golden-neutrality pin:
// with cross-process tracing and metrics federation fully on, a 3-worker grid
// sweep still reconverges bitwise to the uninstrumented single-process run.
func TestGridTelemetryBitwiseParity(t *testing.T) {
	want := render(runLocal(t, tinyRequest()))
	res, _, _, _ := runGridTraced(t, false, 3)
	if got := render(res); got != want {
		t.Errorf("telemetry changed the frontier:\n%s\nwant:\n%s", got, want)
	}
}

// TestGridMergedTraceUnderChaos pins trace well-formedness when the RPCs
// carrying telemetry are dropped, duplicated, delayed and stale-replayed: the
// merged export stays valid, every worker that did jobs has its own named pid
// lane, and each completed job has exactly one evaluation span — on the lane
// of the worker whose delivery completed it, under its job span — because
// spans ride result posts and are recorded only by the delivery that wins
// arbitration. Worker lanes hold nothing else but lease-expired orphans.
func TestGridMergedTraceUnderChaos(t *testing.T) {
	want := render(runLocal(t, tinyRequest()))
	res, coord, tr, _ := runGridTraced(t, true, 3)
	if got := render(res); got != want {
		t.Errorf("chaos + telemetry changed the frontier:\n%s\nwant:\n%s", got, want)
	}

	evs := exportTrace(t, tr)
	procs := checkTraceWellFormed(t, evs)
	if procs[obs.LocalPID] != "coordinator" {
		t.Errorf("local pid named %q, want coordinator", procs[obs.LocalPID])
	}

	evalsPerPID := map[int]int64{}
	evalsPerJob := map[int64]int{}
	var evals int64
	for _, e := range evs {
		if e.Ph != "X" || e.PID == obs.LocalPID {
			continue
		}
		var id int64
		if _, err := fmt.Sscanf(e.Name, "orphan job %d", &id); err == nil {
			continue
		}
		if _, err := fmt.Sscanf(e.Name, "eval job %d", &id); err != nil || e.TID != id {
			t.Errorf("unexpected span %q (tid %d) on worker lane %q", e.Name, e.TID, procs[e.PID])
			continue
		}
		evals++
		evalsPerPID[e.PID]++
		evalsPerJob[id]++
		if w := e.Args["worker"]; procs[e.PID] != "worker "+w {
			t.Errorf("%s by worker %q rendered on lane %q", e.Name, w, procs[e.PID])
		}
		if o := e.Args["outcome"]; e.Args["attempt"] == "" || (o != "ok" && o != "error") {
			t.Errorf("%s args = %v, want attempt and outcome", e.Name, e.Args)
		}
		if p := e.Args["parent_span"]; p != fmt.Sprintf("grid job %d", id) {
			t.Errorf("%s parent_span = %q", e.Name, p)
		}
	}
	for id, n := range evalsPerJob {
		if n != 1 {
			t.Errorf("eval job %d rendered %d times; a re-sent or duplicate delivery drew a span", id, n)
		}
	}

	// One span per completed job, each on the lane of the worker the
	// coordinator credited with that job.
	m := coord.Manifest()
	if m.JobsCompleted == 0 {
		t.Fatal("no jobs completed")
	}
	if evals != m.JobsCompleted {
		t.Errorf("%d eval job spans for %d completed jobs", evals, m.JobsCompleted)
	}
	for _, w := range m.Workers {
		if w.Jobs > 0 && procs[w.PID] != "worker "+w.ID {
			t.Errorf("worker %s pid %d lane named %q", w.ID, w.PID, procs[w.PID])
		}
		if evalsPerPID[w.PID] != w.Jobs {
			t.Errorf("worker %s completed %d jobs but its lane holds %d eval spans", w.ID, w.Jobs, evalsPerPID[w.PID])
		}
	}
}

// TestGridSpanExactlyOnce pins the span rule at the coordinator, with no
// HTTP in between: a job leased to w0 and stolen by w1 draws exactly one
// evaluation span, from the delivery that completes it. w1's re-sent
// delivery, w0's corrupt and late deliveries, and a forged stale replay all
// carry spans, and none of them renders.
func TestGridSpanExactlyOnce(t *testing.T) {
	reg := obs.NewRegistry()
	before := time.Now()
	tr := obs.NewTracer()
	after := time.Now()
	o := &obs.Observer{Metrics: reg, Trace: tr}
	c := NewCoordinator(tinyRequest(), Config{LeaseTTL: 10 * time.Second, StealAfter: time.Nanosecond, Obs: o})

	done := make(chan error, 1)
	go func() {
		_, err := c.Evaluate(obs.NewContext(context.Background(), o), testDesign())
		done <- err
	}()
	first := captureFirstJob(t, c, "w0")
	time.Sleep(time.Millisecond) // past StealAfter
	lr := c.lease(LeaseRequest{Worker: "w1", Max: 1})
	if len(lr.Jobs) != 1 || lr.Jobs[0].ID != first.ID || lr.Jobs[0].Attempt != first.Attempt+1 {
		t.Fatalf("w1 did not steal job %d: %+v", first.ID, lr)
	}
	stolen := lr.Jobs[0]

	ship := after.UnixNano() + 5e6 // worker-measured start, coordinator clock
	span := func(worker string, attempt int) *obs.WireSpan {
		return &obs.WireSpan{
			Name: fmt.Sprintf("eval job %d", first.ID), Cat: "grid", TID: first.ID,
			StartUnixNano: ship, DurNanos: 7e6,
			Args: map[string]string{"worker": worker, "attempt": fmt.Sprint(attempt), "outcome": "ok"},
		}
	}
	payload, _ := json.Marshal(dse.Evaluated{Design: first.Design, SuccessRate: 0.5})
	post := func(worker string, attempt int, crc uint32) ResultResponse {
		return c.result(ResultPost{Worker: worker, Job: first.ID, Attempt: attempt,
			CRC: crc, Result: payload, Span: span(worker, attempt)})
	}
	if r := post("w0", first.Attempt, Checksum(payload)+1); r.Accepted {
		t.Fatalf("corrupt delivery accepted: %+v", r)
	}
	if r := post("w1", stolen.Attempt, Checksum(payload)); !r.Accepted || r.Duplicate {
		t.Fatalf("w1's delivery: %+v", r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r := post("w1", stolen.Attempt, Checksum(payload)); !r.Duplicate {
		t.Errorf("w1's re-sent delivery: %+v", r)
	}
	if r := post("w0", first.Attempt, Checksum(payload)); !r.Duplicate {
		t.Errorf("w0's late delivery: %+v", r)
	}
	if r := post("w1", first.Attempt, Checksum(payload)); !r.Stale {
		t.Errorf("stale replay: %+v", r)
	}
	for name, want := range map[string]int64{
		"grid.result.accepted": 1, "grid.result.duplicate": 2,
		"grid.result.stale": 1, "grid.result.crc_error": 1,
	} {
		if v := reg.Counter(name).Value(); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}

	evs := exportTrace(t, tr)
	procs := checkTraceWellFormed(t, evs)
	var evals []tEvent
	for _, e := range evs {
		if e.Ph == "X" && e.PID != obs.LocalPID {
			if procs[e.PID] != "worker w1" || !strings.HasPrefix(e.Name, "eval job ") {
				t.Errorf("span %q on lane %q", e.Name, procs[e.PID])
			}
			evals = append(evals, e)
		}
	}
	if len(evals) != 1 {
		t.Fatalf("%d evaluation spans, want exactly one: %+v", len(evals), evals)
	}
	e := evals[0]
	if e.Name != fmt.Sprintf("eval job %d", first.ID) || e.TID != first.ID {
		t.Errorf("span %q tid %d", e.Name, e.TID)
	}
	if e.Args["worker"] != "w1" || e.Args["attempt"] != fmt.Sprint(stolen.Attempt) || e.Args["outcome"] != "ok" {
		t.Errorf("span args = %v", e.Args)
	}
	if p := e.Args["parent_span"]; p != fmt.Sprintf("grid job %d", first.ID) {
		t.Errorf("parent_span = %q, want the job span", p)
	}
	// The start converts against the tracer's base, which lies between
	// before and after; the duration is shipped verbatim.
	lo := float64(ship-after.UnixNano()) / 1e3
	hi := float64(ship-before.UnixNano()) / 1e3
	if e.TS < lo || e.TS > hi || e.Dur != 7000 {
		t.Errorf("span ts=%vus dur=%vus, want ts in [%v, %v] and dur 7000", e.TS, e.Dur, lo, hi)
	}
	for _, w := range c.Manifest().Workers {
		if w.ID == "w1" && (w.Steals != 1 || w.Jobs != 1) {
			t.Errorf("w1 attribution = %+v, want one steal and one job", w)
		}
	}
}

// TestGridOrphanSpanOnReclaim pins the killed-worker story: a worker that
// leases a job and dies silently can never ship its span, so the coordinator
// closes the hole itself — a synthesized, completed span on the dead worker's
// lane annotated with the reclaim reason. The trace stays well-formed because
// only completed spans ever enter it.
func TestGridOrphanSpanOnReclaim(t *testing.T) {
	req := tinyRequest()
	tr := obs.NewTracer()
	cfg := Config{LeaseTTL: 60 * time.Millisecond, MaxLeases: 1, MaxAttempts: 50,
		Obs: &obs.Observer{Metrics: obs.NewRegistry(), Trace: tr}}
	coord := NewCoordinator(req, cfg)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	p2, err := req.Phase2Request(surrogateDB())
	if err != nil {
		t.Fatal(err)
	}
	p2.Delegate = coord.Evaluate
	p2.Obs = cfg.Obs
	type out struct {
		res *dse.Result
		err error
	}
	resc := make(chan out, 1)
	go func() {
		res, err := dse.Execute(context.Background(), p2)
		resc <- out{res, err}
	}()

	// The victim leases the first job and is never heard from again — the
	// in-test stand-in for SIGKILL.
	captureFirstJob(t, coord, "victim")

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

	evs := exportTrace(t, tr)
	procs := checkTraceWellFormed(t, evs)
	var orphan *tEvent
	for i, e := range evs {
		if e.Ph == "X" && strings.HasPrefix(e.Name, "orphan job ") {
			orphan = &evs[i]
			break
		}
	}
	if orphan == nil {
		t.Fatal("no orphan span for the dead worker's reclaimed lease")
	}
	if orphan.Args["reason"] != "lease-expired" || orphan.Args["worker"] != "victim" {
		t.Errorf("orphan annotations = %v", orphan.Args)
	}
	if procs[orphan.PID] != "worker victim" {
		t.Errorf("orphan on lane %q, want the dead worker's", procs[orphan.PID])
	}
	if orphan.Args["parent_span"] == "" {
		t.Error("orphan span lost its parent job span")
	}
}

// TestGridFleetEndpoint pins /grid/v1/fleet: after a sweep every worker shows
// up with its job attribution, the totals reconcile, and the final flushed
// metrics snapshots are queryable per worker.
func TestGridFleetEndpoint(t *testing.T) {
	_, coord, _, fleet := runGridTraced(t, false, 3)

	if fleet.JobsCompleted == 0 || fleet.JobsSubmitted != fleet.JobsCompleted {
		t.Errorf("submitted=%d completed=%d, want equal and non-zero", fleet.JobsSubmitted, fleet.JobsCompleted)
	}
	if fleet.Pending != 0 {
		t.Errorf("pending = %d after Close", fleet.Pending)
	}
	if len(fleet.Workers) != 3 {
		t.Fatalf("fleet reports %d workers, want 3: %+v", len(fleet.Workers), fleet.Workers)
	}
	var attributed int64
	seen := map[string]bool{}
	withMetrics := 0
	for _, w := range fleet.Workers {
		seen[w.ID] = true
		attributed += w.Jobs
		if w.LastSeenMS < 0 {
			t.Errorf("worker %s last seen %dms ago", w.ID, w.LastSeenMS)
		}
		if w.ActiveLeases != 0 {
			t.Errorf("worker %s still holds %d leases after the sweep", w.ID, w.ActiveLeases)
		}
		if len(w.Metrics.Counters) > 0 || len(w.Metrics.Histograms) > 0 {
			withMetrics++
		}
	}
	for _, id := range []string{"w0", "w1", "w2"} {
		if !seen[id] {
			t.Errorf("worker %s missing from fleet: %+v", id, fleet.Workers)
		}
	}
	if attributed != fleet.JobsCompleted {
		t.Errorf("per-worker jobs sum to %d, completed = %d", attributed, fleet.JobsCompleted)
	}
	if withMetrics == 0 {
		t.Error("no worker's flushed metrics snapshot reached the fleet")
	}

	// The grid manifest mirrors the same attribution for -manifest output.
	m := coord.Manifest()
	if m.JobsCompleted != fleet.JobsCompleted {
		t.Errorf("manifest completed = %d, fleet = %d", m.JobsCompleted, fleet.JobsCompleted)
	}
	var mJobs int64
	for _, w := range m.Workers {
		mJobs += w.Jobs
		if w.Jobs > 0 && w.BusySec <= 0 {
			t.Errorf("worker %s did %d jobs in %v busy-seconds", w.ID, w.Jobs, w.BusySec)
		}
	}
	if mJobs != m.JobsCompleted {
		t.Errorf("manifest jobs sum to %d, completed = %d", mJobs, m.JobsCompleted)
	}
}
