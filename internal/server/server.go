// Package server implements the co-design job service behind cmd/autopilotd:
// a long-lived, multi-tenant HTTP surface over the three-phase AutoPilot
// pipeline, speaking the typed contract in internal/api.
//
// Jobs are queued FIFO and executed by a small worker pool; every submission
// runs under a per-tenant live-job quota, and completed results live in a
// process-wide content-addressed store keyed by the request's canonical hash
// (internal/memo: LRU + singleflight), so resubmitting a request — by any
// tenant — is answered from cache without re-running the pipeline. Because
// the pipeline is bitwise deterministic, serving from cache is
// indistinguishable from re-running.
//
// Endpoints:
//
//	POST   /v1/jobs             submit an api.CoDesignRequest; 202 + api.Job
//	GET    /v1/jobs/{id}        job status; api.Result once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON stream of the job's pipeline events
//	GET    /healthz             liveness probe
//	GET    /debug/...           obs.DebugMux: live metrics, expvar, pprof
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/fault"
	"autopilot/internal/memo"
	"autopilot/internal/obs"
)

// Config sizes the service. The zero value is a sensible single-node setup.
type Config struct {
	// Queue caps jobs waiting for a worker (default 64). A full queue
	// rejects submissions with 503.
	Queue int
	// JobWorkers is the number of jobs executing concurrently (default 2).
	// Each job additionally parallelizes internally per its request's
	// Workers constraint.
	JobWorkers int
	// TenantQuota caps one tenant's live (queued or running) jobs
	// (default 4). Submissions beyond it get 429.
	TenantQuota int
	// CacheCap bounds the shared result store in entries: >0 LRU-evicts,
	// 0 is unbounded, <0 disables caching.
	CacheCap int
	// StateDir, when set, persists every computed result as
	// <hash>.json and warm-loads them into the cache on startup.
	StateDir string
	// Metrics is the server-wide registry behind /debug/metrics; nil
	// allocates a fresh one.
	Metrics *obs.Registry
	// Pipeline executes one co-design run; nil means core.Run. A seam for
	// tests and for future remote execution backends.
	Pipeline func(ctx context.Context, spec core.Spec) (*core.Report, error)
}

// Server is the job service. Create with New, expose via Handler, stop with
// Close.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *memo.Store[string, api.Result]
	mux   *http.ServeMux

	cSubmitted, cDone, cFailed, cCancelled *obs.Counter
	cRejectQuota, cRejectQueue             *obs.Counter

	mu       sync.Mutex
	jobs     map[string]*job
	live     map[string]int // tenant -> queued+running jobs
	seq      int
	closed   bool
	draining bool

	queue chan *job
	wg    sync.WaitGroup
}

// job is the server-side job record; api.Job is its wire snapshot.
type job struct {
	id     string
	tenant string
	req    api.CoDesignRequest
	hash   string

	ctx    context.Context
	cancel context.CancelFunc
	events *eventLog

	mu        sync.Mutex
	state     api.JobState
	cacheHit  bool
	errText   string
	result    *api.Result
	submitted time.Time
	started   *time.Time
	finished  *time.Time
}

// New builds the service, warm-loading any persisted results from
// cfg.StateDir, and starts its workers.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.TenantQuota <= 0 {
		cfg.TenantQuota = 4
	}
	if cfg.Pipeline == nil {
		cfg.Pipeline = core.Run
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		store:        memo.New[string, api.Result](cfg.CacheCap, memo.RegistryCounters(reg, "server.cache")),
		jobs:         map[string]*job{},
		live:         map[string]int{},
		queue:        make(chan *job, cfg.Queue),
		cSubmitted:   reg.Counter("server.jobs.submitted"),
		cDone:        reg.Counter("server.jobs.done"),
		cFailed:      reg.Counter("server.jobs.failed"),
		cCancelled:   reg.Counter("server.jobs.cancelled"),
		cRejectQuota: reg.Counter("server.jobs.rejected.quota"),
		cRejectQueue: reg.Counter("server.jobs.rejected.queue"),
	}
	if cfg.StateDir != "" {
		if err := s.loadState(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.draining || s.closed
		s.mu.Unlock()
		if draining {
			// Load balancers stop routing here while in-flight jobs drain.
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	s.mux.Handle("/debug/", obs.DebugMux(reg))
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops intake, cancels every live job, and waits for the workers.
// Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, jb := range s.jobs {
		jb.cancel()
	}
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Drain performs a graceful shutdown: intake stops immediately (submissions
// are refused with 503 while draining), queued and running jobs get until ctx
// expires to complete — their results landing in the cache and the state dir
// exactly as in normal operation — and whatever is still running afterwards
// is cancelled via Close. Returns nil when every job finished inside the
// deadline, and ctx.Err() when the deadline cut live jobs off. Idempotent
// with Close in either order.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	var err error
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
wait:
	for {
		s.mu.Lock()
		n := 0
		for _, v := range s.live {
			n += v
		}
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-t.C:
		}
	}
	s.Close()
	return err
}

// --- persistence ---

func (s *Server) statePath(hash string) string {
	return filepath.Join(s.cfg.StateDir, hash+".json")
}

// loadState warm-starts the result store from previously persisted results.
// Files that fail to decode are skipped, not fatal: a corrupt entry costs a
// recomputation, never availability.
func (s *Server) loadState() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, name))
		if err != nil {
			continue
		}
		var res api.Result
		if json.Unmarshal(data, &res) != nil || res.RequestHash == "" {
			continue
		}
		if res.RequestHash != strings.TrimSuffix(name, ".json") {
			continue // content-address mismatch: treat as corrupt
		}
		s.store.Put(res.RequestHash, res)
	}
	return nil
}

// saveState persists one computed result; errors are recorded as a metric
// but do not fail the job — persistence is an optimization.
func (s *Server) saveState(res api.Result) {
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(s.statePath(res.RequestHash), data, 0o644)
	}
	if err != nil {
		s.reg.Counter("server.state.write_errors").Inc()
	}
}

// --- HTTP handlers ---

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// tenant resolves the caller's tenant from the X-Tenant header; anonymous
// callers share one bucket.
func tenant(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.CoDesignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Train != nil && req.Train.Checkpoint != "" {
		httpError(w, http.StatusBadRequest, "train.checkpoint is a local-path option; not accepted over HTTP")
		return
	}
	req = req.Normalized()
	tn := tenant(r)

	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.live[tn] >= s.cfg.TenantQuota {
		s.mu.Unlock()
		s.cRejectQuota.Inc()
		httpError(w, http.StatusTooManyRequests, "tenant %q has %d live jobs (quota %d)", tn, s.cfg.TenantQuota, s.cfg.TenantQuota)
		return
	}
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	jb := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		tenant:    tn,
		req:       req,
		hash:      req.Hash(),
		ctx:       ctx,
		cancel:    cancel,
		events:    newEventLog(),
		state:     api.JobQueued,
		submitted: time.Now(),
	}
	// Logged before the send: a worker may log "running" as soon as it
	// takes the job off the queue.
	jb.events.add(obs.Event{Cat: "job", Name: "queued"})
	select {
	case s.queue <- jb:
	default:
		s.mu.Unlock()
		cancel()
		s.cRejectQueue.Inc()
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", s.cfg.Queue)
		return
	}
	s.jobs[jb.id] = jb
	s.live[tn]++
	s.mu.Unlock()

	s.cSubmitted.Inc()
	writeJSON(w, http.StatusAccepted, jb.snapshot())
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[r.PathValue("id")]
	return jb, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jb.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	jb.cancel()
	writeJSON(w, http.StatusOK, jb.snapshot())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		ev, ok := jb.events.wait(r.Context(), i)
		if !ok {
			return
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// --- execution ---

func (s *Server) worker() {
	defer s.wg.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

func (s *Server) runJob(jb *job) {
	if jb.ctx.Err() != nil { // cancelled while queued
		s.finish(jb, api.JobCancelled, nil, false, jb.ctx.Err())
		return
	}
	now := time.Now()
	jb.mu.Lock()
	jb.state = api.JobRunning
	jb.started = &now
	jb.mu.Unlock()
	jb.events.add(obs.Event{Cat: "job", Name: "running"})

	res, fromCache, err := s.store.Do(jb.ctx, jb.hash, func() (api.Result, error) {
		return s.execute(jb)
	})
	switch {
	case err == nil:
		s.finish(jb, api.JobDone, &res, fromCache, nil)
	case errors.Is(err, context.Canceled):
		s.finish(jb, api.JobCancelled, nil, false, err)
	default:
		s.finish(jb, api.JobFailed, nil, false, err)
	}
}

// finish moves the job to a terminal state, releases its tenant slot, and
// closes the event stream.
func (s *Server) finish(jb *job, state api.JobState, res *api.Result, fromCache bool, err error) {
	now := time.Now()
	jb.mu.Lock()
	jb.state = state
	jb.finished = &now
	jb.cacheHit = fromCache
	jb.result = res
	if err != nil {
		jb.errText = err.Error()
	}
	jb.mu.Unlock()
	jb.cancel() // release the context's resources in every path

	s.mu.Lock()
	if s.live[jb.tenant]--; s.live[jb.tenant] <= 0 {
		delete(s.live, jb.tenant)
	}
	s.mu.Unlock()

	switch state {
	case api.JobDone:
		s.cDone.Inc()
	case api.JobCancelled:
		s.cCancelled.Inc()
	default:
		s.cFailed.Inc()
	}
	jb.events.add(obs.Event{Cat: "job", Name: string(state)})
	jb.events.close()
}

// execute runs the pipeline for a job that missed the cache. The result's
// manifest carries only the deterministic sections (config, seeds, failure
// summary) — never wall-clock or metric snapshots — so a Result is a pure
// function of the request and cache replays are byte-identical.
func (s *Server) execute(jb *job) (api.Result, error) {
	spec, err := jb.req.Spec()
	if err != nil {
		return api.Result{}, err
	}
	spec.Obs = &obs.Observer{Metrics: s.reg, Events: obs.EventFunc(jb.events.add)}
	rep, err := s.cfg.Pipeline(jb.ctx, spec)
	if err != nil {
		return api.Result{}, err
	}
	man := obs.Manifest{
		Tool:   "autopilotd",
		Status: "ok",
		Config: jb.req.ManifestConfig(),
		Seeds:  jb.req.ManifestSeeds(),
	}
	if rep.Phase1 != nil {
		man.Failures = append(man.Failures, fault.Records(rep.Phase1.Failures)...)
		if rep.Phase1.CheckpointQuarantined != "" {
			man.Events = append(man.Events, obs.RunEvent{Kind: "checkpoint-quarantined", Detail: rep.Phase1.CheckpointQuarantined})
		}
	}
	man.Failures = append(man.Failures, fault.Records(rep.Phase2.Failures)...)
	res := api.NewResult(jb.req, rep, man)
	if s.cfg.StateDir != "" {
		s.saveState(res)
	}
	return res, nil
}

// snapshot renders the job in wire form.
func (jb *job) snapshot() api.Job {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return api.Job{
		ID:          jb.id,
		State:       jb.state,
		Tenant:      jb.tenant,
		RequestHash: jb.hash,
		Request:     jb.req,
		CacheHit:    jb.cacheHit,
		Submitted:   jb.submitted,
		Started:     jb.started,
		Finished:    jb.finished,
		Error:       jb.errText,
		Result:      jb.result,
	}
}

// --- event streaming ---

// JobEvent is one NDJSON line of a job's event stream.
type JobEvent struct {
	Seq     int    `json:"seq"`
	Cat     string `json:"cat"`
	Name    string `json:"name"`
	Payload any    `json:"payload,omitempty"`
}

// eventLog is an append-only broadcast log: the pipeline appends, any number
// of stream readers replay from an index and then follow.
type eventLog struct {
	mu     sync.Mutex
	wake   chan struct{} // closed and replaced on every append/close
	events []JobEvent
	done   bool
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

func (l *eventLog) add(e obs.Event) {
	var payload any
	if e.Payload != nil {
		if _, err := json.Marshal(e.Payload); err == nil {
			payload = e.Payload
		} else {
			payload = fmt.Sprint(e.Payload)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.events = append(l.events, JobEvent{Seq: len(l.events), Cat: e.Cat, Name: e.Name, Payload: payload})
	close(l.wake)
	l.wake = make(chan struct{})
}

func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	l.done = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// wait returns event i, blocking until it exists. ok is false once the log
// is closed and drained, or the reader's context ends.
func (l *eventLog) wait(ctx context.Context, i int) (JobEvent, bool) {
	for {
		l.mu.Lock()
		if i < len(l.events) {
			ev := l.events[i]
			l.mu.Unlock()
			return ev, true
		}
		if l.done {
			l.mu.Unlock()
			return JobEvent{}, false
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return JobEvent{}, false
		}
	}
}
