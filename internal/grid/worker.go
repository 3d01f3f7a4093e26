package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// WorkerConfig configures one grid worker.
type WorkerConfig struct {
	// URL is the coordinator base URL (e.g. "http://127.0.0.1:7070").
	URL string
	// ID names the worker in leases and metrics; it must be unique per
	// coordinator (two workers sharing an ID would steal each other's
	// deliveries).
	ID string
	// DB is the Phase-1 policy database evaluations score against; nil
	// builds the built-in surrogate, which is what every worker must use
	// unless the coordinator process shares its database in-process.
	DB *airlearning.Database
	// Batch is the lease request size; 0 accepts the coordinator's default.
	Batch int
	// Parallel bounds concurrent evaluations per worker (default 1).
	Parallel int
	// Heartbeat is the lease-renewal period; 0 uses the coordinator's grid
	// block (or 2s).
	Heartbeat time.Duration
	// Poll is the idle backoff between empty lease calls (default 100ms).
	Poll time.Duration
	// Net injects network faults (drop/delay/dup/stale) into this worker's
	// RPCs; nil injects nothing. Delivery chaos never alters payloads, so
	// results stay bitwise identical under it.
	Net *fault.Injector
	// Obs, when non-nil, instruments the worker's evaluator.
	Obs *obs.Observer
	// Client is the HTTP client; nil uses a 30s-timeout default.
	Client *http.Client
}

// gridWorker is the running state behind Run.
type gridWorker struct {
	cfg    WorkerConfig
	client *http.Client
	ev     *dse.Evaluator
	done   atomic.Bool

	// telemetry is the coordinator's hello verdict: when false the worker
	// times nothing and ships no spans or metrics. clockOffset converts this
	// process's wall clock to the coordinator's (theirs ≈ ours + offset).
	telemetry   bool
	clockOffset int64
	telSeq      atomic.Int64 // metrics snapshot sequence (latest wins)

	mu   sync.Mutex
	held map[int64]bool
}

// Run joins the coordinator at cfg.URL and evaluates leased jobs until the
// sweep completes (returns nil), the context is cancelled, or the
// coordinator stays unreachable past the failure budget. It is the whole
// worker: cmd/gridworker is a flag parser around this call, and cmd/dse's
// -grid-workers mode runs it on goroutines.
func Run(ctx context.Context, cfg WorkerConfig) error {
	if cfg.ID == "" {
		cfg.ID = "worker"
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	w := &gridWorker{cfg: cfg, client: cfg.Client, held: make(map[int64]bool)}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}

	hello, err := w.hello(ctx)
	if err != nil {
		return err
	}
	if hello.Version != ProtocolVersion {
		return fmt.Errorf("grid: worker %s: coordinator speaks protocol %d, want %d",
			cfg.ID, hello.Version, ProtocolVersion)
	}
	if hello.Telemetry {
		// Spans ship stamped on the coordinator's clock: the offset between
		// the two wall clocks is learned here (one-shot, RTT ignored — trace
		// alignment needs milliseconds, not microseconds).
		w.telemetry = true
		w.clockOffset = hello.NowUnixNano - time.Now().UnixNano()
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
		if g := hello.Request.Grid; g != nil && g.HeartbeatMS > 0 {
			cfg.Heartbeat = time.Duration(g.HeartbeatMS) * time.Millisecond
		}
		w.cfg.Heartbeat = cfg.Heartbeat
	}

	db := cfg.DB
	if db == nil {
		db = airlearning.NewDatabase()
		airlearning.PopulateSurrogate(db)
	}
	p2, err := hello.Request.Phase2Request(db)
	if err != nil {
		return fmt.Errorf("grid: worker %s: rebuild request: %w", cfg.ID, err)
	}
	p2.Obs = cfg.Obs
	w.ev = p2.NewEvaluator()

	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go w.heartbeatLoop(hbCtx)

	err = w.leaseLoop(ctx)
	hbCancel()
	if err == nil {
		w.flushTelemetry()
	}
	return err
}

// flushTelemetry makes one best-effort final shipment of the closing metrics
// snapshot when the sweep ends cleanly. It bypasses the chaos injector: the
// sweep's results are already delivered, so this RPC is outside the
// deterministic surface and should not consume chaos decisions.
func (w *gridWorker) flushTelemetry() {
	req := w.heartbeatRequest(nil)
	if req.Metrics == nil {
		return
	}
	_ = w.post(PathHeartbeat, req, nil)
}

// heartbeatRequest renews the given jobs and, when telemetry is on, attaches
// a sequenced cumulative snapshot of the worker's registry.
func (w *gridWorker) heartbeatRequest(jobs []int64) HeartbeatRequest {
	req := HeartbeatRequest{Worker: w.cfg.ID, Jobs: jobs}
	if w.telemetry && w.cfg.Obs != nil && w.cfg.Obs.Metrics != nil {
		snap := w.cfg.Obs.Metrics.Snapshot()
		req.Metrics, req.MetricsSeq = &snap, w.telSeq.Add(1)
	}
	return req
}

// hello fetches the coordinator's self-description, waiting out the window
// where the worker process started before the coordinator began listening.
func (w *gridWorker) hello(ctx context.Context) (HelloResponse, error) {
	var hr HelloResponse
	var last error
	for i := 0; i < 100; i++ {
		if err := ctx.Err(); err != nil {
			return hr, fmt.Errorf("grid: worker %s: hello: %w", w.cfg.ID, err)
		}
		resp, err := w.client.Get(w.cfg.URL + PathHello)
		if err == nil {
			body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				if jerr := json.Unmarshal(body, &hr); jerr == nil {
					return hr, nil
				} else {
					last = jerr
				}
			} else {
				last = fmt.Errorf("status %d", resp.StatusCode)
			}
		} else {
			last = err
		}
		sleepCtx(ctx, 100*time.Millisecond)
	}
	return hr, fmt.Errorf("grid: worker %s: coordinator %s never answered hello: %v", w.cfg.ID, w.cfg.URL, last)
}

// leaseLoop is the worker's main loop: lease a batch, evaluate it (bounded by
// Parallel), deliver, repeat.
func (w *gridWorker) leaseLoop(ctx context.Context) error {
	var seq, failures int
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.done.Load() {
			return nil
		}
		var lr LeaseResponse
		key := fmt.Sprintf("lease|%s#%d", w.cfg.ID, seq)
		seq++
		req := LeaseRequest{Worker: w.cfg.ID, Max: w.cfg.Batch}
		err := w.cfg.Net.RPC(key, func() error {
			return w.post(PathLease, req, &lr)
		})
		if err != nil {
			failures++
			if failures >= 25 {
				return fmt.Errorf("grid: worker %s: coordinator unreachable: %w", w.cfg.ID, err)
			}
			sleepCtx(ctx, w.cfg.Poll)
			continue
		}
		failures = 0
		if lr.Done {
			return nil
		}
		if len(lr.Jobs) == 0 {
			wait := time.Duration(lr.WaitMS) * time.Millisecond
			if wait <= 0 {
				wait = w.cfg.Poll
			}
			sleepCtx(ctx, wait)
			continue
		}
		sem := make(chan struct{}, w.cfg.Parallel)
		var wg sync.WaitGroup
		for _, jb := range lr.Jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(jb Job) {
				defer wg.Done()
				defer func() { <-sem }()
				w.runJob(ctx, jb)
			}(jb)
		}
		wg.Wait()
	}
}

// runJob evaluates one leased job and delivers its outcome. The attempt index
// feeds the evaluator's chaos keys (via EvaluateAttempt), so a re-issued
// lease draws fresh injected faults while a clean evaluation stays bitwise
// identical to the local engine's.
func (w *gridWorker) runJob(ctx context.Context, jb Job) {
	w.mu.Lock()
	w.held[jb.ID] = true
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.held, jb.ID)
		w.mu.Unlock()
	}()

	var start time.Time
	if w.telemetry {
		start = time.Now()
	}
	e, err := w.ev.EvaluateAttempt(ctx, jb.Design, jb.Attempt)
	if ctx.Err() != nil {
		// A cancelled evaluation is this worker dying, not an answer; leave
		// the lease to expire and be re-issued elsewhere.
		return
	}
	post := ResultPost{Worker: w.cfg.ID, Job: jb.ID, Attempt: jb.Attempt}
	if w.telemetry {
		// The evaluation span rides this attempt's result post and lands on
		// this worker's pid lane in the merged trace, under the
		// coordinator's job span; tid = job id keeps one job's attempts on
		// one row. A worker killed mid-evaluation posts nothing, and the
		// coordinator closes the orphan with a lease-expired annotation.
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		post.Span = &obs.WireSpan{
			Name: fmt.Sprintf("eval job %d", jb.ID), Cat: "grid", TID: jb.ID,
			StartUnixNano: start.UnixNano() + w.clockOffset,
			DurNanos:      time.Since(start).Nanoseconds(),
			Args: map[string]string{
				"worker":  w.cfg.ID,
				"attempt": fmt.Sprintf("%d", jb.Attempt),
				"outcome": outcome,
			},
		}
	}
	if err != nil {
		post.Error = encodeError(err)
	} else {
		raw, merr := json.Marshal(e)
		if merr != nil {
			post.Error = encodeError(merr)
		} else {
			post.Result = raw
			post.CRC = Checksum(raw)
		}
	}
	w.deliver(ctx, jb, post)
}

// deliver posts a result at-least-once: transport faults (including injected
// drops) retry under a small deterministic backoff budget, duplicate
// deliveries are absorbed coordinator-side, and an injected stale decision
// forges a re-delivery tagged with the previous attempt rank to exercise the
// coordinator's arbitration.
func (w *gridWorker) deliver(ctx context.Context, jb Job, post ResultPost) {
	var rr ResultResponse
	p := fault.Policy{Attempts: 6, BaseDelay: 20 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
	err := fault.Retry(ctx, p, func(ctx context.Context, attempt int) error {
		key := fmt.Sprintf("result|%016x#%d", uint64(jb.Seed), attempt)
		return w.cfg.Net.RPC(key, func() error { return w.post(PathResult, post, &rr) })
	})
	if err != nil {
		return // lease expires; the coordinator re-issues the job
	}
	if rr.Done {
		w.done.Store(true)
	}
	if jb.Attempt > 0 && w.cfg.Net.StaleRPC(fmt.Sprintf("stale|%016x", uint64(jb.Seed))) {
		stale := post
		stale.Attempt = jb.Attempt - 1
		var junk ResultResponse
		_ = w.post(PathResult, stale, &junk)
	}
}

// heartbeatLoop renews the worker's leases until the context ends.
func (w *gridWorker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	var seq int
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		ids := make([]int64, 0, len(w.held))
		for id := range w.held {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		var hr HeartbeatResponse
		key := fmt.Sprintf("heartbeat|%s#%d", w.cfg.ID, seq)
		seq++
		req := w.heartbeatRequest(ids)
		if err := w.cfg.Net.RPC(key, func() error {
			return w.post(PathHeartbeat, req, &hr)
		}); err != nil {
			continue // missed heartbeats are exactly what lease TTLs absorb
		}
		if hr.Done {
			w.done.Store(true)
		}
	}
}

// post sends one JSON request and decodes the JSON response.
func (w *gridWorker) post(path string, req, resp any) error {
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := w.client.Post(w.cfg.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("grid: %s: status %d: %s", path, r.StatusCode, bytes.TrimSpace(body))
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(body, resp)
}

// sleepCtx sleeps d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
