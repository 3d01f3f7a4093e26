package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
	"autopilot/internal/obs"
)

// tinyRequest is a real but fast co-design query (~tens of ms): the full
// surrogate pipeline over a reduced Phase-2 budget.
func tinyRequest() api.CoDesignRequest {
	return api.CoDesignRequest{
		Constraints: api.Constraints{CandidatePool: 192, BOIterations: 6, Workers: 2},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func submit(t *testing.T, ts *httptest.Server, req api.CoDesignRequest, tenant string) (api.Job, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jb api.Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
			t.Fatal(err)
		}
	}
	return jb, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) api.Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var jb api.Job
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatal(err)
	}
	return jb
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		jb := getJob(t, ts, id)
		if jb.State != api.JobQueued && jb.State != api.JobRunning {
			return jb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, jb.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitState polls until the job reaches the given (possibly non-terminal)
// state.
func waitState(t *testing.T, ts *httptest.Server, id string, want api.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		jb := getJob(t, ts, id)
		if jb.State == want {
			return
		}
		if jb.State != api.JobQueued && jb.State != api.JobRunning || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, jb.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blockingPipeline returns a Pipeline seam that parks every job until its
// context is cancelled — deterministic fuel for quota/queue/cancel tests.
func blockingPipeline(started chan<- string) func(context.Context, core.Spec) (*core.Report, error) {
	return func(ctx context.Context, spec core.Spec) (*core.Report, error) {
		if started != nil {
			started <- spec.Platform.Name
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// TestJobBitwiseMatchesDirectRun pins the tentpole guarantee: a job
// submitted over HTTP yields byte-for-byte the report, Pareto front, and
// deterministic manifest sections of the same request run in-process (the
// path cmd/autopilot takes).
func TestJobBitwiseMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := tinyRequest()
	jb, code := submit(t, ts, req, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	jb = waitJob(t, ts, jb.ID)
	if jb.State != api.JobDone || jb.Result == nil {
		t.Fatalf("job = %+v", jb)
	}

	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := api.NewResult(req, rep, obs.Manifest{
		Tool:   "autopilotd",
		Status: "ok",
		Config: req.ManifestConfig(),
		Seeds:  req.ManifestSeeds(),
	})

	gotReport, _ := json.Marshal(jb.Result.Report)
	wantReport, _ := json.Marshal(want.Report)
	if !bytes.Equal(gotReport, wantReport) {
		t.Errorf("report over HTTP differs from direct run:\n got %s\nwant %s", gotReport, wantReport)
	}
	gotPareto, _ := json.Marshal(jb.Result.Pareto)
	wantPareto, _ := json.Marshal(want.Pareto)
	if !bytes.Equal(gotPareto, wantPareto) {
		t.Errorf("pareto front over HTTP differs from direct run:\n got %s\nwant %s", gotPareto, wantPareto)
	}
	gotMan, _ := json.Marshal(jb.Result.Manifest)
	wantMan, _ := json.Marshal(want.Manifest)
	if !bytes.Equal(gotMan, wantMan) {
		t.Errorf("manifest over HTTP differs from direct run:\n got %s\nwant %s", gotMan, wantMan)
	}
	if jb.Result.RequestHash != req.Hash() {
		t.Errorf("request hash %q, want %q", jb.Result.RequestHash, req.Hash())
	}
	if len(jb.Result.Pareto) == 0 {
		t.Error("empty pareto front")
	}
}

// TestDuplicateSubmissionServedFromCache pins the shared result store: an
// identical second submission — different tenant, different worker count —
// is a cache hit carrying a byte-identical result.
func TestDuplicateSubmissionServedFromCache(t *testing.T) {
	svc, ts := newTestServer(t, Config{})
	first, code := submit(t, ts, tinyRequest(), "alice")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	first = waitJob(t, ts, first.ID)
	if first.State != api.JobDone || first.CacheHit {
		t.Fatalf("first job: state %s cacheHit %v", first.State, first.CacheHit)
	}

	again := tinyRequest()
	again.Constraints.Workers = 7 // worker count must not split the cache
	second, _ := submit(t, ts, again, "bob")
	second = waitJob(t, ts, second.ID)
	if second.State != api.JobDone || !second.CacheHit {
		t.Fatalf("second job: state %s cacheHit %v", second.State, second.CacheHit)
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if !bytes.Equal(a, b) {
		t.Error("cached result differs from computed result")
	}
	if hits, misses := svc.reg.Counter("server.cache.hits").Value(), svc.reg.Counter("server.cache.misses").Value(); hits < 1 || misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want >=1 hit and exactly 1 miss", hits, misses)
	}

	// The hit is observable over the wire, where operators will look for it.
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.cache.hits"] < 1 {
		t.Errorf("/debug/metrics server.cache.hits = %d", snap.Counters["server.cache.hits"])
	}
}

// TestTenantQuota pins per-tenant admission control: a tenant at its live
// quota gets 429 while other tenants still get through.
func TestTenantQuota(t *testing.T) {
	started := make(chan string, 8)
	_, ts := newTestServer(t, Config{TenantQuota: 1, JobWorkers: 1, Pipeline: blockingPipeline(started)})

	jb, code := submit(t, ts, tinyRequest(), "alice")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if _, code := submit(t, ts, tinyRequest(), "alice"); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", code)
	}
	other := tinyRequest()
	other.Seed = 2
	jb2, code := submit(t, ts, other, "bob")
	if code != http.StatusAccepted {
		t.Fatalf("other-tenant submit: status %d, want 202", code)
	}

	// Cancel both; alice's slot must free up for a resubmission.
	for _, id := range []string{jb.ID, jb2.ID} {
		hr, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(hr); err != nil {
			t.Fatal(err)
		}
		waitJob(t, ts, id)
	}
	if _, code := submit(t, ts, tinyRequest(), "alice"); code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want 202", code)
	}
}

// TestQueueFull pins backpressure: with the worker pinned and the queue
// full, further submissions get 503.
func TestQueueFull(t *testing.T) {
	started := make(chan string, 8)
	svc, ts := newTestServer(t, Config{Queue: 1, JobWorkers: 1, TenantQuota: 100, Pipeline: blockingPipeline(started)})

	running, code := submit(t, ts, tinyRequest(), "a")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", code)
	}
	<-started // worker is now parked inside the job
	q := tinyRequest()
	q.Seed = 2
	if _, code := submit(t, ts, q, "b"); code != http.StatusAccepted {
		t.Fatalf("submit 2 (fills queue): status %d", code)
	}
	q.Seed = 3
	if _, code := submit(t, ts, q, "c"); code != http.StatusServiceUnavailable {
		t.Fatalf("submit 3: status %d, want 503", code)
	}
	if svc.reg.Counter("server.jobs.rejected.queue").Value() != 1 {
		t.Error("queue rejection not counted")
	}
	_ = running
}

// TestCancellation pins DELETE: a running job transitions to cancelled and
// its worker is released.
func TestCancellation(t *testing.T) {
	started := make(chan string, 1)
	_, ts := newTestServer(t, Config{JobWorkers: 1, Pipeline: blockingPipeline(started)})
	jb, _ := submit(t, ts, tinyRequest(), "")
	<-started
	waitState(t, ts, jb.ID, api.JobRunning)

	hr, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+jb.ID, nil)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	jb = waitJob(t, ts, jb.ID)
	if jb.State != api.JobCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", jb.State)
	}
	if jb.Result != nil {
		t.Error("cancelled job carries a result")
	}

	// The worker must be free again: a real follow-up job would run, and a
	// cancelled run must not have poisoned the cache.
	next := tinyRequest()
	next.Seed = 5
	nj, code := submit(t, ts, next, "")
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d", code)
	}
	<-started
	waitState(t, ts, nj.ID, api.JobRunning)
}

// TestEventsStream pins the NDJSON event surface: lifecycle transitions
// arrive in order and the stream terminates once the job is done.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jb, _ := submit(t, ts, tinyRequest(), "")
	jb = waitJob(t, ts, jb.ID)
	if jb.State != api.JobDone {
		t.Fatalf("job state %s", jb.State)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("content type %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Cat == "job" {
			names = append(names, ev.Name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"queued", "running", "done"}
	if len(names) != len(want) {
		t.Fatalf("lifecycle events %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("lifecycle events %v, want %v", names, want)
		}
	}
}

// TestQueuedLoggedBeforeDequeue pins the lifecycle order at its source: a
// job taken straight off the queue has already logged "queued", so a
// worker's "running" cannot come first. The only worker is parked in a
// blocking job, which leaves the test as the queue's one reader.
func TestQueuedLoggedBeforeDequeue(t *testing.T) {
	started := make(chan string, 1)
	svc, ts := newTestServer(t, Config{Queue: 1, JobWorkers: 1, TenantQuota: 100, Pipeline: blockingPipeline(started)})
	if _, code := submit(t, ts, tinyRequest(), ""); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started
	for seed := int64(2); seed <= 9; seed++ {
		taken := make(chan []string, 1)
		go func() {
			jb, ok := <-svc.queue
			if !ok { // closed by the cleanup of a failed test
				taken <- nil
				return
			}
			jb.events.mu.Lock()
			defer jb.events.mu.Unlock()
			var names []string
			for _, ev := range jb.events.events {
				names = append(names, ev.Name)
			}
			taken <- names
		}()
		req := tinyRequest()
		req.Seed = seed
		if _, code := submit(t, ts, req, ""); code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		if names := <-taken; len(names) != 1 || names[0] != "queued" {
			t.Fatalf("seed %d: events when dequeued %v, want [queued]", seed, names)
		}
	}
}

// TestStatePersistence pins -state-dir: results computed by one server
// instance are warm-loaded by the next, which answers without recomputing.
func TestStatePersistence(t *testing.T) {
	dir := t.TempDir()
	// A corrupt stray file must be skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "bogus.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc1, ts1 := newTestServer(t, Config{StateDir: dir})
	jb, _ := submit(t, ts1, tinyRequest(), "")
	jb = waitJob(t, ts1, jb.ID)
	if jb.State != api.JobDone {
		t.Fatalf("job state %s", jb.State)
	}
	if _, err := os.Stat(filepath.Join(dir, jb.RequestHash+".json")); err != nil {
		t.Fatalf("result not persisted: %v", err)
	}
	ts1.Close()
	svc1.Close()

	svc2, ts2 := newTestServer(t, Config{StateDir: dir})
	jb2, _ := submit(t, ts2, tinyRequest(), "")
	jb2 = waitJob(t, ts2, jb2.ID)
	if jb2.State != api.JobDone || !jb2.CacheHit {
		t.Fatalf("restarted server: state %s cacheHit %v", jb2.State, jb2.CacheHit)
	}
	if hits, misses := svc2.reg.Counter("server.cache.hits").Value(), svc2.reg.Counter("server.cache.misses").Value(); hits != 1 || misses != 0 {
		t.Errorf("restarted server cache stats hits=%d misses=%d, want 1/0", hits, misses)
	}
	a, _ := json.Marshal(jb.Result)
	b, _ := json.Marshal(jb2.Result)
	if !bytes.Equal(a, b) {
		t.Error("persisted result differs from computed result")
	}
}

// TestSubmitValidation pins the 400 surface.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := map[string]string{
		"malformed JSON":   "{",
		"unknown field":    `{"uav":"nano","bogus":1}`,
		"unknown uav":      `{"uav":"blimp"}`,
		"unknown scenario": `{"scenario":"urban"}`,
		"local checkpoint": `{"train":{"checkpoint":"/tmp/x.json"}}`,
	}
	for name, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestHealthz keeps the probe honest.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestEventsFollowLiveJob checks a reader attached before completion
// receives events as they happen and sees the stream close.
func TestEventsFollowLiveJob(t *testing.T) {
	started := make(chan string, 1)
	_, ts := newTestServer(t, Config{Pipeline: blockingPipeline(started)})
	jb, _ := submit(t, ts, tinyRequest(), "")
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + jb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	read := make(chan string, 16)
	go func() {
		defer close(read)
		for sc.Scan() {
			var ev JobEvent
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Cat == "job" {
				read <- ev.Name
			}
		}
	}()
	expect := func(want string) {
		select {
		case got := <-read:
			if got != want {
				t.Fatalf("event %q, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q", want)
		}
	}
	expect("queued")
	expect("running")

	hr, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+jb.ID, nil)
	if dresp, err := http.DefaultClient.Do(hr); err == nil {
		dresp.Body.Close()
	}
	expect("cancelled")
	if _, more := <-read; more {
		t.Fatal("stream did not terminate after the job finished")
	}
}
