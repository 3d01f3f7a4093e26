// Engine tests exercise the full Phase-1 training seam — cancellation,
// worker-count-invariant determinism, checkpoint resume, and progress
// reporting — from an external package so the real rl algorithms can plug in
// through their Factory.
package train_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/tensor"
	"autopilot/internal/train"
)

// testHypers is a small slice of the template family that keeps real
// training runs fast.
var testHypers = []policy.Hyper{
	{Layers: 2, Filters: 32},
	{Layers: 4, Filters: 48},
	{Layers: 7, Filters: 48},
}

func testConfig(workers int) train.Config {
	return train.Config{Episodes: 4, EvalEpisodes: 3, Seed: 1, Workers: workers}
}

func testFactory() train.Factory {
	return rl.Factory(rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 4, EvalEpisodes: 3, Seed: 1})
}

func TestConfigValidate(t *testing.T) {
	if err := (train.Config{Episodes: 1, EvalEpisodes: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (train.Config{Episodes: 0, EvalEpisodes: 1}).Validate(); err == nil {
		t.Fatal("want error for zero episodes")
	}
	if err := (train.Config{Episodes: 1, EvalEpisodes: 0}).Validate(); err == nil {
		t.Fatal("want error for zero eval episodes")
	}
	for _, budget := range []float64{-0.1, 1.5, math.NaN()} {
		if err := (train.Config{Episodes: 1, EvalEpisodes: 1, FailureBudget: budget}).Validate(); err == nil {
			t.Errorf("failure budget %g accepted", budget)
		}
	}
}

// TestJobSeedMatchesSequentialAssignment pins the determinism contract's
// seed derivation: over the full Table II family in canonical order, the
// identity-derived seeds coincide with the historical sequential assignment
// base, base+1, ...
func TestJobSeedMatchesSequentialAssignment(t *testing.T) {
	const base = int64(42)
	for i, h := range policy.AllHypers() {
		if got, want := train.JobSeed(base, h), base+int64(i); got != want {
			t.Fatalf("JobSeed(%d, %s) = %d, want %d", base, h, got, want)
		}
	}
}

// sinkObserver hands every progress event's payload to f.
func sinkObserver(f func(train.Progress)) *obs.Observer {
	return &obs.Observer{Events: obs.EventFunc(func(e obs.Event) {
		if p, ok := e.Payload.(train.Progress); ok {
			f(p)
		}
	})}
}

func sweep(t *testing.T, cfg train.Config) *airlearning.Database {
	t.Helper()
	db := airlearning.NewDatabase()
	eng := train.New(testFactory(), cfg)
	if _, err := eng.Sweep(context.Background(), testHypers, airlearning.LowObstacle, db); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSweepDeterministicAcrossWorkerCounts is the engine's core guarantee:
// the database a sweep produces is bitwise identical at any worker count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	one := sweep(t, testConfig(1))
	eight := sweep(t, testConfig(8))
	if !reflect.DeepEqual(one.All(), eight.All()) {
		t.Fatalf("workers=1 and workers=8 databases differ:\n%+v\n%+v", one.All(), eight.All())
	}
}

// TestSweepFailFastDeterministicAcrossWorkerCounts: without a failure
// budget the sweep reports the lowest-index failing job, named by its key,
// at every worker count, even when a later job fails first.
func TestSweepFailFastDeterministicAcrossWorkerCounts(t *testing.T) {
	scen := airlearning.LowObstacle
	err0, err1 := errors.New("first hyper"), errors.New("second hyper")
	real := testFactory()
	factory := func(h policy.Hyper, seed int64) (train.Algorithm, error) {
		switch h {
		case testHypers[0]:
			time.Sleep(20 * time.Millisecond)
			return nil, err0
		case testHypers[1]:
			return nil, err1
		}
		return real(h, seed)
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := train.New(factory, testConfig(workers)).Sweep(context.Background(), testHypers, scen, airlearning.NewDatabase())
		if !errors.Is(err, err0) || errors.Is(err, err1) {
			t.Errorf("workers=%d: err = %v, want the first hyper's failure", workers, err)
		}
		if key := airlearning.Key(testHypers[0], scen); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("workers=%d: err = %v does not name job %s", workers, err, key)
		}
	}
}

// TestSweepResumeMatchesUninterrupted interrupts a sweep after its first
// completed record, then resumes from the checkpoint and checks the final
// database is bitwise identical to an uninterrupted run.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "phase1.json")

	// Interrupted run: cancel as soon as the first record completes.
	ctx, cancel := context.WithCancel(context.Background())
	cfg := testConfig(1)
	cfg.Checkpoint = ckpt
	icfg := cfg
	icfg.Obs = sinkObserver(func(p train.Progress) {
		if p.Done {
			cancel()
		}
	})
	interrupted := train.New(testFactory(), icfg)
	db1 := airlearning.NewDatabase()
	_, err := interrupted.Sweep(ctx, testHypers, airlearning.LowObstacle, db1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep err = %v, want context.Canceled", err)
	}
	partial, err := airlearning.Load(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after interruption: %v", err)
	}
	if n := partial.Len(); n == 0 || n >= len(testHypers) {
		t.Fatalf("checkpoint holds %d records, want partial progress", n)
	}

	// Resume with a fresh engine against the same checkpoint.
	resumed := airlearning.NewDatabase()
	rep, err := train.New(testFactory(), cfg).Sweep(context.Background(), testHypers, airlearning.LowObstacle, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("resumed sweep reports no skipped records")
	}

	uninterrupted := sweep(t, testConfig(1))
	if !reflect.DeepEqual(resumed.All(), uninterrupted.All()) {
		t.Fatalf("resumed database differs from uninterrupted run:\n%+v\n%+v",
			resumed.All(), uninterrupted.All())
	}
	// The checkpoint itself must also have converged to the full database.
	final, err := airlearning.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.All(), uninterrupted.All()) {
		t.Fatal("final checkpoint differs from uninterrupted database")
	}
}

// TestSweepSkipsRecordsAlreadyInDatabase: points the database already holds
// must not be retrained.
func TestSweepSkipsRecordsAlreadyInDatabase(t *testing.T) {
	var mu sync.Mutex
	built := map[string]int{}
	counting := func(h policy.Hyper, seed int64) (train.Algorithm, error) {
		mu.Lock()
		built[h.String()]++
		mu.Unlock()
		return testFactory()(h, seed)
	}
	db := airlearning.NewDatabase()
	db.Put(airlearning.Record{Hyper: testHypers[0], Scenario: airlearning.LowObstacle, SuccessRate: 0.5})
	eng := train.New(counting, testConfig(2))
	if _, err := eng.Sweep(context.Background(), testHypers, airlearning.LowObstacle, db); err != nil {
		t.Fatal(err)
	}
	if built[testHypers[0].String()] != 0 {
		t.Fatal("retrained a point the database already holds")
	}
	for _, h := range testHypers[1:] {
		if built[h.String()] != 1 {
			t.Fatalf("hyper %s trained %d times, want 1", h, built[h.String()])
		}
	}
}

func TestTrainCancelledBetweenEpisodes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := train.Config{Episodes: 1_000_000, EvalEpisodes: 3, Seed: 1, Workers: 1, ProgressEvery: 1}
	cfg.Obs = sinkObserver(func(p train.Progress) {
		if p.Episode >= 2 {
			cancel() // mid-run: training loop must notice before the budget ends
		}
	})
	eng := train.New(testFactory(), cfg)
	_, _, err := eng.Train(ctx, testHypers[0], airlearning.LowObstacle)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressSinkReports(t *testing.T) {
	var got []train.Progress
	cfg := testConfig(1)
	cfg.ProgressEvery = 1
	cfg.Obs = sinkObserver(func(p train.Progress) {
		got = append(got, p)
	})
	eng := train.New(testFactory(), cfg)
	rec, _, err := eng.Train(context.Background(), testHypers[0], airlearning.LowObstacle)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Episodes+1 {
		t.Fatalf("%d reports, want %d per-episode + 1 done", len(got), cfg.Episodes+1)
	}
	for i, p := range got[:cfg.Episodes] {
		if p.Done || p.Episode != i+1 || p.Episodes != cfg.Episodes {
			t.Fatalf("report %d = %+v", i, p)
		}
		if p.Algorithm != "dqn" {
			t.Fatalf("report algorithm = %q", p.Algorithm)
		}
	}
	final := got[cfg.Episodes]
	if !final.Done || final.SuccessRate != rec.SuccessRate || final.Steps != rec.TrainSteps {
		t.Fatalf("final report %+v vs record %+v", final, rec)
	}
}

// frozenPolicy builds an untrained deployment policy — deterministic and
// replicable — for collector tests.
func frozenPolicy(t *testing.T) airlearning.Policy {
	t.Helper()
	net, err := policy.NewTrainable(policy.Hyper{Layers: 3, Filters: 32}, policy.DefaultTrainable(), tensor.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	return rl.GreedyPolicy{Net: net}
}

// TestCollectorInvariantToWorkers: the per-episode results must be those of
// airlearning.RunEpisode on episode i's own environment, run one episode at
// a time, whatever the worker count.
func TestCollectorInvariantToWorkers(t *testing.T) {
	pol := frozenPolicy(t)
	const n, seed = 10, 2001
	want := make([]airlearning.EpisodeResult, n)
	for i := range want {
		want[i] = airlearning.RunEpisode(airlearning.NewEnv(airlearning.LowObstacle, seed+int64(i)), pol)
	}
	for _, workers := range []int{1, 4, 8} {
		c := train.Collector{Scenario: airlearning.LowObstacle, Seed: seed, Workers: workers}
		got, err := c.Collect(context.Background(), pol, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d results differ from sequential RunEpisode:\n%+v\n%+v", workers, got, want)
		}
	}
}

func TestCollectorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := train.Collector{Scenario: airlearning.LowObstacle, Seed: 1, Workers: 2}
	if _, err := c.Collect(ctx, frozenPolicy(t), 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := train.Collector{Scenario: airlearning.LowObstacle, Seed: 1}
	res, err := c.Collect(context.Background(), frozenPolicy(t), 0)
	if err != nil || res != nil {
		t.Fatalf("Collect(0) = %v, %v", res, err)
	}
	rate, err := c.SuccessRate(context.Background(), frozenPolicy(t), 0)
	if err != nil || rate != 0 {
		t.Fatalf("SuccessRate(0) = %v, %v", rate, err)
	}
}

func TestEngineRejectsBadBudget(t *testing.T) {
	eng := train.New(testFactory(), train.Config{})
	if _, _, err := eng.Train(context.Background(), testHypers[0], airlearning.LowObstacle); err == nil {
		t.Fatal("want budget error")
	}
	if _, err := eng.Sweep(context.Background(), testHypers, airlearning.LowObstacle, airlearning.NewDatabase()); err == nil {
		t.Fatal("want budget error")
	}
}

// TestSweepQuarantinesCorruptCheckpoint: a damaged checkpoint must not kill
// the sweep — it is renamed aside (preserving the evidence), reported, and
// the sweep restarts from scratch, converging bitwise to an uninterrupted
// run.
func TestSweepQuarantinesCorruptCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(ckpt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1)
	cfg.Checkpoint = ckpt
	db := airlearning.NewDatabase()
	rep, err := train.New(testFactory(), cfg).Sweep(context.Background(), testHypers, airlearning.LowObstacle, db)
	if err != nil {
		t.Fatalf("sweep with corrupt checkpoint: %v", err)
	}
	if want := ckpt + ".corrupt"; rep.CheckpointQuarantined != want {
		t.Fatalf("quarantine path %q, want %q", rep.CheckpointQuarantined, want)
	}
	if data, err := os.ReadFile(ckpt + ".corrupt"); err != nil || string(data) != "{not json" {
		t.Fatalf("quarantined file = %q, %v; want original corrupt bytes", data, err)
	}
	if !reflect.DeepEqual(db.All(), sweep(t, testConfig(1)).All()) {
		t.Fatal("post-quarantine sweep differs from clean run")
	}
	// The rewritten checkpoint must now be valid and complete.
	final, err := airlearning.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.All(), db.All()) {
		t.Fatal("rewritten checkpoint differs from swept database")
	}
}

// TestSweepResumeFromTruncatedCheckpoint bit-flips and truncates a valid
// snapshot mid-payload: Load must detect the damage via the checksum,
// quarantine it, and the re-run sweep must converge bitwise to the
// uninterrupted database.
func TestSweepResumeFromTruncatedCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "phase1.json")
	cfg := testConfig(1)
	cfg.Checkpoint = ckpt
	want := airlearning.NewDatabase()
	if _, err := train.New(testFactory(), cfg).Sweep(context.Background(), testHypers, airlearning.LowObstacle, want); err != nil {
		t.Fatal(err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)*2/3] },
		"bitflip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			good, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			bad := filepath.Join(dir, "phase1.json")
			if err := os.WriteFile(bad, fn(good), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(1)
			cfg.Checkpoint = bad
			db := airlearning.NewDatabase()
			rep, err := train.New(testFactory(), cfg).Sweep(context.Background(), testHypers, airlearning.LowObstacle, db)
			if err != nil {
				t.Fatalf("sweep over %s checkpoint: %v", name, err)
			}
			if rep.CheckpointQuarantined != bad+".corrupt" {
				t.Fatalf("quarantine path %q", rep.CheckpointQuarantined)
			}
			if !reflect.DeepEqual(db.All(), want.All()) {
				t.Fatalf("%s recovery diverged from uninterrupted run", name)
			}
		})
	}
}
