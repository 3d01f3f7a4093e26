package train_test

import (
	"context"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/train"
)

// sweepRecords runs a tiny real training sweep and returns the resulting
// records, optionally with a full observer (metrics + tracer + events)
// attached.
func sweepRecords(t *testing.T, workers int, o *obs.Observer) []airlearning.Record {
	t.Helper()
	hypers := []policy.Hyper{{Layers: 2, Filters: 32}, {Layers: 3, Filters: 32}}
	cfg := rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 40, EvalEpisodes: 10, Seed: 1}
	db := airlearning.NewDatabase()
	eng := train.New(rl.Factory(cfg), train.Config{
		Episodes:     cfg.Episodes,
		EvalEpisodes: cfg.EvalEpisodes,
		Seed:         cfg.Seed,
		Workers:      workers,
		Obs:          o,
	})
	if _, err := eng.Sweep(context.Background(), hypers, airlearning.LowObstacle, db); err != nil {
		t.Fatal(err)
	}
	out := make([]airlearning.Record, 0, len(hypers))
	for _, h := range hypers {
		rec, ok := db.Get(h, airlearning.LowObstacle)
		if !ok {
			t.Fatalf("no record for %s", h)
		}
		out = append(out, rec)
	}
	return out
}

// TestObsBitwiseNeutral pins the observability contract for Phase 1:
// attaching the full observer changes no trained bit — success rates and env
// step counts are identical with obs on and off, at any worker count.
func TestObsBitwiseNeutral(t *testing.T) {
	for _, workers := range []int{1, 8} {
		plain := sweepRecords(t, workers, nil)
		o := &obs.Observer{
			Metrics: obs.NewRegistry(),
			Trace:   obs.NewTracer(),
			Events:  obs.EventFunc(func(obs.Event) {}),
		}
		instr := sweepRecords(t, workers, o)
		for i := range plain {
			if plain[i].SuccessRate != instr[i].SuccessRate {
				t.Errorf("workers=%d %s: success rate %x with obs off, %x with obs on",
					workers, plain[i].Hyper, plain[i].SuccessRate, instr[i].SuccessRate)
			}
			if plain[i].TrainSteps != instr[i].TrainSteps {
				t.Errorf("workers=%d %s: %d env steps with obs off, %d with obs on",
					workers, plain[i].Hyper, plain[i].TrainSteps, instr[i].TrainSteps)
			}
		}
	}
}

// TestObsSweepTelemetry checks the instruments a sweep is expected to leave
// behind: episode/step/run counters, per-run job spans, and the sweep span.
func TestObsSweepTelemetry(t *testing.T) {
	o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
	recs := sweepRecords(t, 2, o)
	r := o.Metrics
	if got := r.Counter("train.runs").Value(); got != int64(len(recs)) {
		t.Errorf("train.runs = %d, want %d", got, len(recs))
	}
	if got := r.Counter("train.jobs.trained").Value(); got != int64(len(recs)) {
		t.Errorf("train.jobs.trained = %d, want %d", got, len(recs))
	}
	var steps int64
	for _, rec := range recs {
		steps += int64(rec.TrainSteps)
	}
	if got := r.Counter("train.env_steps").Value(); got != steps {
		t.Errorf("train.env_steps = %d, want %d (sum of record TrainSteps)", got, steps)
	}
	if r.Counter("train.episodes").Value() == 0 || r.Counter("train.eval.episodes").Value() == 0 {
		t.Error("episode counters not incremented")
	}
	if r.Counter("train.eval.env_steps").Value() < r.Counter("train.eval.episodes").Value() {
		t.Errorf("train.eval.env_steps = %d, want at least one per evaluation episode (%d)",
			r.Counter("train.eval.env_steps").Value(), r.Counter("train.eval.episodes").Value())
	}
	if got := len(o.Trace.Durations("train")); got < len(recs) {
		t.Errorf("completed %d train-category spans, want >= %d (one job span per run)", got, len(recs))
	}
}
