package grid

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// Config tunes the coordinator's lease machinery. The zero value selects the
// documented defaults (api.GridSpec's normalization).
type Config struct {
	// BatchSize caps jobs granted per lease call (default 4).
	BatchSize int
	// LeaseTTL is how long a worker may hold a job without completing or
	// heartbeating it before the lease expires (default 10s).
	LeaseTTL time.Duration
	// MaxLeases caps concurrent leases per job — the work-stealing width
	// (default 2).
	MaxLeases int
	// StealAfter is how long a job's newest lease must be outstanding before
	// an idle worker may steal a duplicate lease on it (default LeaseTTL/4).
	// Without it, idle workers would re-evaluate every in-flight job the
	// moment the pending queue drains; with it, stealing targets genuine
	// stragglers only.
	StealAfter time.Duration
	// MaxAttempts caps lease issues per job before it is declared failed
	// (default 6).
	MaxAttempts int
	// Obs, when non-nil, receives the lease/steal/reclaim counters and
	// per-job spans.
	Obs *obs.Observer
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxLeases <= 0 {
		c.MaxLeases = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.StealAfter <= 0 {
		c.StealAfter = c.LeaseTTL / 4
	}
	return c
}

// ConfigFromSpec translates a normalized api.GridSpec into a Config.
func ConfigFromSpec(g *api.GridSpec) Config {
	if g == nil {
		return Config{}.withDefaults()
	}
	return Config{
		BatchSize:   g.BatchSize,
		LeaseTTL:    time.Duration(g.LeaseTTLMS) * time.Millisecond,
		MaxLeases:   g.MaxLeases,
		MaxAttempts: g.MaxAttempts,
	}.withDefaults()
}

// lease is one outstanding grant of a job attempt to a worker.
type lease struct {
	worker   string
	granted  time.Time
	deadline time.Time
}

// job is one design evaluation owned by the coordinator.
type job struct {
	id     int64
	design dse.DesignPoint
	seed   int64 // identity-derived JobSeed
	next   int   // next attempt index to issue
	queued bool  // on the pending queue
	leases map[int]lease
	issued map[int]string // every attempt ever granted -> worker

	completed bool
	res       dse.Evaluated
	err       error
	done      chan struct{}
	sp        *obs.Span
}

// workerState is the coordinator's per-worker bookkeeping: trace lane and
// attribution counters for the fleet endpoint and the run manifest.
type workerState struct {
	pid      int // merged-trace lane (2, 3, ... — coordinator is 1)
	lastSeen time.Time
	accepted int64
	steals   int64
	reclaims int64
	busy     time.Duration // sum over accepted results of delivery - grant
}

// Coordinator owns a sweep's job table and serves the grid wire protocol.
// It plugs into the search engine as an evaluation delegate (dse
// Request.Delegate = c.Evaluate): the optimizer loop stays single-process
// and consumes results in its usual order, so sharding is invisible to it.
type Coordinator struct {
	cfg Config
	req api.CoDesignRequest

	mu          sync.Mutex
	jobs        map[int64]*job
	pending     []int64 // FIFO, submission order
	nextID      int64
	closed      bool
	lastReclaim time.Time
	workers     map[string]*workerState

	fleet *obs.Fleet

	cJobs, cJobsDone, cJobsFailed, cExhausted *obs.Counter
	cGranted, cExpired, cStolen, cRenewed     *obs.Counter
	cAccepted, cDuplicate, cStale, cCRCError  *obs.Counter
	cMergeSkipped                             *obs.Counter
}

// NewCoordinator builds a coordinator for one sweep of the given (normalized)
// request.
func NewCoordinator(req api.CoDesignRequest, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	o := cfg.Obs
	c := &Coordinator{
		cfg:     cfg,
		req:     req.Normalized(),
		jobs:    make(map[int64]*job),
		workers: make(map[string]*workerState),
		fleet:   obs.NewFleet(),

		cJobs:       o.Counter("grid.jobs.submitted"),
		cJobsDone:   o.Counter("grid.jobs.completed"),
		cJobsFailed: o.Counter("grid.jobs.failed"),
		cExhausted:  o.Counter("grid.jobs.exhausted"),
		cGranted:    o.Counter("grid.lease.granted"),
		cExpired:    o.Counter("grid.lease.expired"),
		cStolen:     o.Counter("grid.lease.stolen"),
		cRenewed:    o.Counter("grid.lease.renewed"),
		cAccepted:   o.Counter("grid.result.accepted"),
		cDuplicate:  o.Counter("grid.result.duplicate"),
		cStale:      o.Counter("grid.result.stale"),
		cCRCError:   o.Counter("grid.result.crc_error"),

		cMergeSkipped: o.Counter("grid.fleet.merge_skipped"),
	}
	c.tracer().SetProcessName(obs.LocalPID, "coordinator")
	return c
}

// tracer returns the coordinator's tracer; nil when tracing is off (every
// tracer method no-ops on nil).
func (c *Coordinator) tracer() *obs.Tracer {
	if c.cfg.Obs == nil {
		return nil
	}
	return c.cfg.Obs.Trace
}

// telemetryOn reports whether this coordinator ingests worker spans and
// metrics — advertised in hello so untelemetered sweeps ship (and allocate)
// nothing.
func (c *Coordinator) telemetryOn() bool {
	return c.cfg.Obs != nil && (c.cfg.Obs.Trace != nil || c.cfg.Obs.Metrics != nil)
}

// workerStateLocked returns (creating on first sight) the worker's state.
// First sight assigns the worker the next free trace pid lane and names it
// in the merged trace; callers that represent a real contact from the worker
// update lastSeen themselves. Callers hold c.mu.
func (c *Coordinator) workerStateLocked(id string) *workerState {
	ws := c.workers[id]
	if ws == nil {
		ws = &workerState{pid: obs.LocalPID + 1 + len(c.workers)}
		c.workers[id] = ws
		c.tracer().SetProcessName(ws.pid, "worker "+id)
	}
	return ws
}

// Evaluate is the sweep's evaluation delegate: it turns one design into a
// leased job and blocks until some worker's delivery completes it (or the
// context is cancelled — the job stays in the table so a late delivery is
// still absorbed rather than erroring on the worker).
func (c *Coordinator) Evaluate(ctx context.Context, d dse.DesignPoint) (dse.Evaluated, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return dse.Evaluated{}, fmt.Errorf("grid: coordinator closed")
	}
	id := c.nextID
	c.nextID++
	j := &job{
		id:     id,
		design: d,
		seed:   JobSeed(d.String(), c.req.Seed),
		queued: true,
		leases: make(map[int]lease),
		issued: make(map[int]string),
		done:   make(chan struct{}),
		sp:     obs.StartJob(ctx, fmt.Sprintf("grid job %d", id), "grid"),
	}
	c.jobs[id] = j
	c.pending = append(c.pending, id)
	c.cJobs.Inc()
	c.mu.Unlock()

	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return dse.Evaluated{}, fmt.Errorf("grid: evaluation abandoned: %w", ctx.Err())
	}
}

// Close ends the sweep: outstanding jobs fail, and every subsequent lease or
// heartbeat tells its worker to exit.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, j := range c.jobs {
		if !j.completed {
			c.completeLocked(j, dse.Evaluated{}, fmt.Errorf("grid: coordinator closed"))
		}
	}
}

// completeLocked finishes a job exactly once. Callers hold c.mu.
func (c *Coordinator) completeLocked(j *job, res dse.Evaluated, err error) {
	if j.completed {
		return
	}
	j.completed = true
	j.res, j.err = res, err
	j.leases = nil
	if err != nil {
		c.cJobsFailed.Inc()
	} else {
		c.cJobsDone.Inc()
	}
	j.sp.End()
	close(j.done)
}

// reclaimLocked expires stale leases and re-queues (or fails) their jobs.
// Reclamation is lazy — it runs at the head of every lease and heartbeat
// call — so the coordinator needs no background ticker. Callers hold c.mu.
func (c *Coordinator) reclaimLocked(now time.Time) {
	// The scan is O(all jobs); gate it to once per LeaseTTL/4 so hot paths
	// (lease grants, result merges) stay O(1) amortized. A lease is then
	// reclaimed at most TTL/4 late, which the TTL already budgets for.
	if now.Sub(c.lastReclaim) < c.cfg.LeaseTTL/4 {
		return
	}
	c.lastReclaim = now
	for _, j := range c.jobs {
		if j.completed {
			continue
		}
		for a, l := range j.leases {
			if now.After(l.deadline) {
				delete(j.leases, a)
				c.cExpired.Inc()
				ws := c.workerStateLocked(l.worker)
				ws.reclaims++
				// The holder died (or went silent) without delivering, so
				// the merged trace would show nothing on its lane for this
				// attempt. Close the orphan explicitly with a typed
				// annotation — the trace stays well-formed because only
				// completed spans ever enter it.
				c.tracer().Ingest(ws.pid, j.sp, obs.WireSpan{
					Name: fmt.Sprintf("orphan job %d", j.id), Cat: "grid", TID: j.id,
					StartUnixNano: l.granted.UnixNano(),
					DurNanos:      now.Sub(l.granted).Nanoseconds(),
					Args: map[string]string{
						"reason":  "lease-expired",
						"worker":  l.worker,
						"attempt": fmt.Sprintf("%d", a),
					},
				})
			}
		}
		if len(j.leases) == 0 && !j.queued {
			if j.next >= c.cfg.MaxAttempts {
				c.cExhausted.Inc()
				c.completeLocked(j, dse.Evaluated{}, fmt.Errorf(
					"grid: job %d (%s) exhausted %d lease attempts", j.id, j.design, j.next))
				continue
			}
			j.queued = true
			c.pending = append(c.pending, j.id)
		}
	}
}

// grantLocked issues the job's next attempt to a worker. Callers hold c.mu.
func (c *Coordinator) grantLocked(j *job, worker string, now time.Time) Job {
	a := j.next
	j.next++
	j.leases[a] = lease{worker: worker, granted: now, deadline: now.Add(c.cfg.LeaseTTL)}
	j.issued[a] = worker
	c.cGranted.Inc()
	return Job{ID: j.id, Design: j.design, Seed: fault.AttemptSeed(j.seed, a), Attempt: a}
}

// lease grants up to req.Max pending jobs; with the queue empty it steals
// duplicate leases on the slowest outstanding jobs (oldest submission first,
// capped at MaxLeases per job) so stragglers never serialize the tail of the
// sweep.
func (c *Coordinator) lease(req LeaseRequest) LeaseResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(now)
	ws := c.workerStateLocked(req.Worker)
	ws.lastSeen = now
	if c.closed {
		return LeaseResponse{Done: true}
	}
	max := req.Max
	if max <= 0 || max > c.cfg.BatchSize {
		max = c.cfg.BatchSize
	}
	var jobs []Job
	for len(jobs) < max && len(c.pending) > 0 {
		id := c.pending[0]
		c.pending = c.pending[1:]
		j := c.jobs[id]
		j.queued = false
		if j.completed {
			continue
		}
		jobs = append(jobs, c.grantLocked(j, req.Worker, now))
	}
	if len(jobs) == 0 {
		for _, j := range c.outstandingLocked() {
			if len(jobs) >= max {
				break
			}
			if len(j.leases) >= c.cfg.MaxLeases || j.next >= c.cfg.MaxAttempts {
				continue
			}
			// Only straggling jobs are worth duplicating: every active lease
			// must have been outstanding past the steal threshold, and never
			// on this worker (re-granting a job to the worker already running
			// it buys nothing).
			eligible := true
			for _, l := range j.leases {
				if l.worker == req.Worker || now.Sub(l.granted) < c.cfg.StealAfter {
					eligible = false
					break
				}
			}
			if !eligible {
				continue
			}
			jobs = append(jobs, c.grantLocked(j, req.Worker, now))
			c.cStolen.Inc()
			ws.steals++
		}
	}
	if len(jobs) == 0 {
		return LeaseResponse{WaitMS: 50}
	}
	return LeaseResponse{Jobs: jobs}
}

// outstandingLocked returns incomplete, unqueued, currently-leased jobs in
// submission order — the steal scan order (oldest grant = slowest job first).
// Callers hold c.mu.
func (c *Coordinator) outstandingLocked() []*job {
	var out []*job
	for _, j := range c.jobs {
		if !j.completed && !j.queued && len(j.leases) > 0 {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// heartbeat renews every lease the worker still holds on the listed jobs
// and federates the worker's metrics snapshot: the latest sequence wins, and
// any instrument whose histogram layout disagrees is counted, not dropped.
// Jobs the worker no longer holds (reclaimed, completed elsewhere, unknown)
// are simply not renewed.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(now)
	c.workerStateLocked(req.Worker).lastSeen = now
	if req.Metrics != nil && req.MetricsSeq > 0 {
		skipped := c.fleet.Update(req.Worker, req.MetricsSeq, *req.Metrics)
		c.cMergeSkipped.Add(int64(len(skipped)))
	}
	for _, id := range req.Jobs {
		j := c.jobs[id]
		if j == nil || j.completed {
			continue
		}
		for a, l := range j.leases {
			if l.worker == req.Worker {
				// Renewal moves the deadline but not the grant time: a slow
				// worker that keeps heartbeating is still a straggler the
				// steal scan may duplicate.
				j.leases[a] = lease{worker: l.worker, granted: l.granted, deadline: now.Add(c.cfg.LeaseTTL)}
				c.cRenewed.Inc()
			}
		}
	}
	return HeartbeatResponse{Done: c.closed}
}

// result arbitrates one delivery: reject attempts that were never leased to
// the sender (stale re-deliveries), absorb duplicates of an already-completed
// job, CRC-check the payload, and complete the job on first valid delivery —
// which is what makes duplicate leases (steals) and at-least-once posting
// safe. The delivery's evaluation span is recorded only when the delivery
// completes the job, so the same arbitration makes spans exactly-once.
func (c *Coordinator) result(p ResultPost) ResultResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workerStateLocked(p.Worker)
	ws.lastSeen = now
	j := c.jobs[p.Job]
	if j == nil {
		c.cStale.Inc()
		return ResultResponse{Stale: true, Done: c.closed}
	}
	if w, ok := j.issued[p.Attempt]; !ok || w != p.Worker {
		c.cStale.Inc()
		return ResultResponse{Stale: true, Done: c.closed}
	}
	if j.completed {
		c.cDuplicate.Inc()
		return ResultResponse{Accepted: true, Duplicate: true, Done: c.closed}
	}
	if p.Error != nil {
		c.acceptLocked(ws, j, p, now, dse.Evaluated{}, p.Error.reconstruct())
		return ResultResponse{Accepted: true, Done: c.closed}
	}
	if Checksum(p.Result) != p.CRC {
		// A corrupt payload is dropped, not fatal: the lease stays
		// outstanding, so the job is re-delivered or reclaimed like any
		// other lost attempt.
		c.cCRCError.Inc()
		return ResultResponse{Done: c.closed}
	}
	var e dse.Evaluated
	if err := json.Unmarshal(p.Result, &e); err != nil {
		c.cCRCError.Inc()
		return ResultResponse{Done: c.closed}
	}
	c.acceptLocked(ws, j, p, now, e, nil)
	return ResultResponse{Accepted: true, Done: c.closed}
}

// acceptLocked completes a job from the delivery that won arbitration: it
// credits the sender with one job plus coordinator-clock wall time from the
// winning attempt's lease grant to delivery, records the delivery's
// evaluation span on the sender's lane under the job span, and finishes the
// job. Callers hold c.mu.
func (c *Coordinator) acceptLocked(ws *workerState, j *job, p ResultPost, now time.Time, res dse.Evaluated, err error) {
	c.cAccepted.Inc()
	ws.accepted++
	if l, ok := j.leases[p.Attempt]; ok {
		ws.busy += now.Sub(l.granted)
	}
	if p.Span != nil {
		c.tracer().Ingest(ws.pid, j.sp, *p.Span)
	}
	c.completeLocked(j, res, err)
}

// fleetStatus snapshots the coordinator's view of the fleet for the
// /grid/v1/fleet endpoint.
func (c *Coordinator) fleetStatus() FleetResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	resp := FleetResponse{
		Workers:       []FleetWorkerStatus{},
		JobsSubmitted: c.cJobs.Value(),
		JobsCompleted: c.cJobsDone.Value(),
		JobsFailed:    c.cJobsFailed.Value(),
		JobsExhausted: c.cExhausted.Value(),
		Pending:       len(c.pending),
		MergeSkipped:  c.fleet.Skipped(),
	}
	active := map[string]int{}
	oldest := map[string]time.Time{}
	for _, j := range c.jobs {
		if j.completed {
			continue
		}
		for _, l := range j.leases {
			active[l.worker]++
			if t, ok := oldest[l.worker]; !ok || l.granted.Before(t) {
				oldest[l.worker] = l.granted
			}
		}
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		st := FleetWorkerStatus{
			ID: id, PID: ws.pid,
			LastSeenMS:   now.Sub(ws.lastSeen).Milliseconds(),
			Jobs:         ws.accepted,
			Steals:       ws.steals,
			Reclaims:     ws.reclaims,
			ActiveLeases: active[id],
			BusySec:      ws.busy.Seconds(),
		}
		if t, ok := oldest[id]; ok {
			st.OldestLeaseMS = now.Sub(t).Milliseconds()
		}
		if snap, ok := c.fleet.Worker(id); ok {
			st.Metrics = snap
		}
		resp.Workers = append(resp.Workers, st)
	}
	return resp
}

// Fleet exposes the coordinator's federated worker-metrics registry — what
// a serving process merges into its Prometheus exposition.
func (c *Coordinator) Fleet() *obs.Fleet { return c.fleet }

// Manifest summarizes the sweep's grid topology for the run manifest: totals
// plus the per-worker attribution table, sorted by worker id.
func (c *Coordinator) Manifest() *obs.GridManifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &obs.GridManifest{
		JobsSubmitted: c.cJobs.Value(),
		JobsCompleted: c.cJobsDone.Value(),
		JobsFailed:    c.cJobsFailed.Value(),
		JobsExhausted: c.cExhausted.Value(),
		MergeSkipped:  c.fleet.Skipped(),
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := c.workers[id]
		m.Workers = append(m.Workers, obs.GridWorkerManifest{
			ID: id, PID: ws.pid,
			Jobs:     ws.accepted,
			Steals:   ws.steals,
			Reclaims: ws.reclaims,
			BusySec:  ws.busy.Seconds(),
		})
	}
	return m
}

// Handler serves the grid wire protocol.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathHello, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, HelloResponse{
			Version: ProtocolVersion, Request: c.req,
			NowUnixNano: time.Now().UnixNano(), Telemetry: c.telemetryOn(),
		})
	})
	mux.HandleFunc(PathFleet, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, c.fleetStatus())
	})
	mux.Handle(PathLease, postJSON(func(req LeaseRequest) LeaseResponse { return c.lease(req) }))
	mux.Handle(PathHeartbeat, postJSON(func(req HeartbeatRequest) HeartbeatResponse { return c.heartbeat(req) }))
	mux.Handle(PathResult, postJSON(func(req ResultPost) ResultResponse { return c.result(req) }))
	return mux
}

// postJSON adapts a typed request/response function to an HTTP endpoint.
func postJSON[Req, Resp any](fn func(Req) Resp) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, fn(req))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}
