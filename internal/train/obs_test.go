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

// TestSinkEventsAdapter pins satellite (a): legacy Sinks now ride the obs
// event stream through the SinkEvents adapter, and the engine emits the same
// Progress payloads it used to deliver directly.
func TestSinkEventsAdapter(t *testing.T) {
	var direct []train.Progress
	sink := train.SinkFunc(func(p train.Progress) { direct = append(direct, p) })
	adapter := train.SinkEvents(sink)
	if train.SinkEvents(nil) != nil {
		t.Fatal("SinkEvents(nil) not nil")
	}
	adapter.Emit(obs.Event{Cat: "train", Name: "progress", Payload: train.Progress{Episode: 3}})
	adapter.Emit(obs.Event{Cat: "checkpoint", Name: "quarantined", Payload: "db"}) // wrong payload type: dropped
	if len(direct) != 1 || direct[0].Episode != 3 {
		t.Fatalf("adapter delivered %+v", direct)
	}

	// End to end: a legacy sink adapted over the event stream and a raw
	// observer event sink both see the engine's progress events.
	var viaSink, viaEvents int
	o := &obs.Observer{Events: obs.MultiSink(
		obs.EventFunc(func(e obs.Event) {
			if e.Cat == "train" && e.Name == "progress" {
				if _, ok := e.Payload.(train.Progress); !ok {
					t.Errorf("progress payload has type %T", e.Payload)
				}
				viaEvents++
			}
		}),
		train.SinkEvents(train.SinkFunc(func(train.Progress) { viaSink++ })),
	)}
	cfg := rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 20, EvalEpisodes: 5, Seed: 1}
	eng := train.New(rl.Factory(cfg), train.Config{
		Episodes:     cfg.Episodes,
		EvalEpisodes: cfg.EvalEpisodes,
		Seed:         cfg.Seed,
		Obs:          o,
	})
	if _, _, err := eng.Train(context.Background(), policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle); err != nil {
		t.Fatal(err)
	}
	if viaSink == 0 || viaSink != viaEvents {
		t.Fatalf("sink saw %d progress reports, event stream saw %d", viaSink, viaEvents)
	}
}
