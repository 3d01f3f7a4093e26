package server

import (
	"bufio"
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"autopilot/internal/core"
	"autopilot/internal/dse"
)

// gatedPipeline parks each job until release is closed, then succeeds with an
// empty report — fuel for drain tests that need a job to finish on cue.
func gatedPipeline(started chan<- string, release <-chan struct{}) func(context.Context, core.Spec) (*core.Report, error) {
	return func(ctx context.Context, spec core.Spec) (*core.Report, error) {
		if started != nil {
			started <- spec.Platform.Airframe.Label
		}
		select {
		case <-release:
			return &core.Report{Phase2: &dse.Result{}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestDrainRefusesNewJobsAndCompletesRunning pins graceful shutdown: once
// Drain starts, submissions and health checks turn 503 while the running job
// keeps executing; when it finishes, Drain returns cleanly and the job's
// terminal state is done, not cancelled.
func TestDrainRefusesNewJobsAndCompletesRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc, ts := newTestServer(t, Config{JobWorkers: 1, Pipeline: gatedPipeline(started, release)})

	jb, code := submit(t, ts, tinyRequest(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started // the job is on a worker, parked on the gate

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()

	// Drain flips the refusal flag before it starts waiting; poll until both
	// surfaces report draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := submit(t, ts, tinyRequest(), ""); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never turned 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a job still running", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil after the job finished", err)
	}
	if got := getJob(t, ts, jb.ID); got.State != "done" {
		t.Errorf("job state after drain = %s, want done", got.State)
	}
}

// TestDrainDeadlineCancelsStragglers pins the drain budget: a job that never
// finishes makes Drain return the context error at its deadline, and the
// server still ends up closed with the job cancelled.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	started := make(chan string, 1)
	svc, ts := newTestServer(t, Config{JobWorkers: 1, Pipeline: blockingPipeline(started)})

	jb, code := submit(t, ts, tinyRequest(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Fatal("Drain = nil, want deadline error with a stuck job")
	}
	if got := waitJob(t, ts, jb.ID); got.State != "cancelled" {
		t.Errorf("stuck job state = %s, want cancelled", got.State)
	}
}

// TestEventsClientDisconnectReleasesStream pins the NDJSON stream's cleanup:
// a client that goes away mid-stream (job still running, log still open) must
// unblock the server-side handler promptly — no goroutine parked on the event
// log per dead subscriber.
func TestEventsClientDisconnectReleasesStream(t *testing.T) {
	started := make(chan string, 1)
	_, ts := newTestServer(t, Config{JobWorkers: 1, Pipeline: blockingPipeline(started)})

	jb, code := submit(t, ts, tinyRequest(), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	const streams = 8
	for i := 0; i < streams; i++ {
		req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+jb.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: status %d", resp.StatusCode)
		}
		// Read one event so the stream is demonstrably established and
		// parked in eventLog.wait before we hang up.
		if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		defer resp.Body.Close()
	}
	if n := runtime.NumGoroutine(); n < base+streams {
		t.Logf("only %d goroutines over base %d before disconnect", n-base, base)
	}

	cancel() // every subscriber hangs up mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+1 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after disconnect: %d > base %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
