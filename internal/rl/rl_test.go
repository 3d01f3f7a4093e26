package rl

import (
	"context"
	"errors"
	"testing"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
	"autopilot/internal/train"
)

// trainEpisodes drives alg through the engine's episode loop and returns
// the env steps taken.
func trainEpisodes(env *airlearning.Env, alg train.Algorithm, episodes int) int {
	steps := 0
	for ep := 0; ep < episodes; ep++ {
		steps += train.RunTrainingEpisode(env, alg).Steps
	}
	return steps
}

func TestReplayBufferBasics(t *testing.T) {
	b := NewReplayBuffer(3)
	if b.Len() != 0 {
		t.Fatalf("empty Len = %d", b.Len())
	}
	for i := 0; i < 5; i++ {
		b.Add(Transition{Action: i})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", b.Len())
	}
	// after wrap, actions 2,3,4 remain
	g := tensor.NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[b.draw(g).t.Action] = true
	}
	for a := range seen {
		if a < 2 {
			t.Fatalf("evicted transition %d still sampled", a)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("100 draws saw actions %v, want all of 2, 3 and 4", seen)
	}
}

func TestReplayBufferEmptySample(t *testing.T) {
	b := NewReplayBuffer(2)
	if got := b.draw(tensor.NewRNG(1)); got != nil {
		t.Fatalf("draw on empty = %+v, want nil", got)
	}
}

// TestDQNCachedTargetsMatchTarget checks the bootstrap cache against the
// target network it stands in for: after training through several ring
// wraps and target syncs, every slot holding a value for the current epoch
// holds what the target network computes for its next state now.
func TestDQNCachedTargetsMatchTarget(t *testing.T) {
	g := tensor.NewRNG(25)
	h := policy.Hyper{Layers: 2, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	cfg := DefaultDQNConfig()
	cfg.BufferSize, cfg.TargetSync, cfg.LearnStart = 48, 30, 20
	d := NewDQN(online, target, cfg, 25)
	trainEpisodes(airlearning.NewEnv(airlearning.LowObstacle, 25), d, 40)
	if d.steps < 2*cfg.BufferSize || d.epoch < 3 {
		t.Fatalf("%d steps and %d target epochs: the ring never wrapped twice or the target never synced twice", d.steps, d.epoch)
	}
	cached := 0
	for i := range d.buffer.slots[:d.buffer.Len()] {
		s := &d.buffer.slots[i]
		if s.epoch != d.epoch {
			continue
		}
		cached++
		if want, _ := d.Target.Forward(s.t.Next.Image, s.t.Next.State).Max(); s.next != want {
			t.Fatalf("slot %d caches %v, target network gives %v", i, s.next, want)
		}
	}
	if cached == 0 {
		t.Fatal("no slot caches a value for the current target epoch")
	}
}

func TestReplayBufferZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewReplayBuffer(0)
}

func TestEpsilonDecay(t *testing.T) {
	g := tensor.NewRNG(1)
	online, err := policy.NewTrainable(policy.Hyper{Layers: 2, Filters: 32}, policy.DefaultTrainable(), g)
	if err != nil {
		t.Fatal(err)
	}
	target, err := policy.NewTrainable(policy.Hyper{Layers: 2, Filters: 32}, policy.DefaultTrainable(), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultDQNConfig()
	cfg.EpsDecaySteps = 100
	d := NewDQN(online, target, cfg, 1)
	if d.Epsilon() != cfg.EpsStart {
		t.Fatalf("initial epsilon = %g", d.Epsilon())
	}
	d.steps = 50
	mid := d.Epsilon()
	if mid >= cfg.EpsStart || mid <= cfg.EpsEnd {
		t.Fatalf("mid epsilon = %g, want strictly between end and start", mid)
	}
	d.steps = 1000
	if diff := d.Epsilon() - cfg.EpsEnd; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("final epsilon = %g, want %g", d.Epsilon(), cfg.EpsEnd)
	}
}

func TestDQNTargetSyncOnConstruction(t *testing.T) {
	g := tensor.NewRNG(2)
	h := policy.Hyper{Layers: 3, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	d := NewDQN(online, target, DefaultDQNConfig(), 1)
	env := airlearning.NewEnv(airlearning.LowObstacle, 1)
	obs := env.Reset()
	a := d.Online.Forward(obs.Image, obs.State)
	b := d.Target.Forward(obs.Image, obs.State)
	if !tensor.Equal(a, b, 1e-12) {
		t.Fatal("target must equal online after construction")
	}
}

func TestDQNTrainSmoke(t *testing.T) {
	g := tensor.NewRNG(3)
	h := policy.Hyper{Layers: 2, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	cfg := DefaultDQNConfig()
	cfg.BatchSize = 4
	cfg.UpdateEvery = 8
	d := NewDQN(online, target, cfg, 3)
	env := airlearning.NewEnv(airlearning.LowObstacle, 3)
	if steps := trainEpisodes(env, d, 10); steps <= 0 {
		t.Fatalf("10 episodes took %d steps", steps)
	}
}

func TestReinforceTrainEpisodeUpdatesParams(t *testing.T) {
	g := tensor.NewRNG(4)
	h := policy.Hyper{Layers: 2, Filters: 32}
	model, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	before := model.Params()[0].Clone()
	agent := NewReinforce(model, DefaultReinforceConfig(), 4)
	env := airlearning.NewEnv(airlearning.LowObstacle, 4)
	train.RunTrainingEpisode(env, agent)
	if tensor.Equal(before, model.Params()[0], 0) {
		t.Fatal("training episode did not change parameters")
	}
}

func TestReinforcePolicySamplesValidActions(t *testing.T) {
	g := tensor.NewRNG(5)
	model, _ := policy.NewTrainable(policy.Hyper{Layers: 2, Filters: 32}, policy.DefaultTrainable(), g)
	agent := NewReinforce(model, DefaultReinforceConfig(), 5)
	env := airlearning.NewEnv(airlearning.LowObstacle, 5)
	obs := env.Reset()
	for i := 0; i < 50; i++ {
		a := agent.Act(obs)
		if a < 0 || a >= airlearning.NumActions {
			t.Fatalf("sampled action %d out of range", a)
		}
		if g := agent.Policy().Act(obs); g < 0 || g >= airlearning.NumActions {
			t.Fatalf("greedy action %d out of range", g)
		}
	}
}

func TestDQNLearnsOnNavigationTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training run; skipped with -short")
	}
	// A small arena keeps the task learnable in a few hundred episodes.
	cfg := airlearning.LowObstacle.Config()
	cfg.ArenaW, cfg.ArenaH = 13, 13
	cfg.RandomMax = 2
	cfg.MaxSteps = 50
	env := airlearning.NewEnvWithConfig(airlearning.LowObstacle, cfg, 6)

	g := tensor.NewRNG(6)
	h := policy.Hyper{Layers: 2, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	dcfg := DefaultDQNConfig()
	dcfg.EpsDecaySteps = 2500
	agent := NewDQN(online, target, dcfg, 6)

	evalEnv := airlearning.NewEnvWithConfig(airlearning.LowObstacle, cfg, 1006)
	before := airlearning.SuccessRate(evalEnv, agent.Policy(), 30)
	trainEpisodes(env, agent, 250)
	after := airlearning.SuccessRate(evalEnv, agent.Policy(), 30)
	if after <= before && after < 0.4 {
		t.Fatalf("DQN did not learn: success before %.2f, after %.2f", before, after)
	}
}

func TestEngineTrainProducesValidRecord(t *testing.T) {
	cfg := TrainConfig{Algorithm: AlgDQN, Episodes: 5, EvalEpisodes: 5, Seed: 7}
	rec, pol, err := Engine(cfg).Train(context.Background(), policy.Hyper{Layers: 3, Filters: 32}, airlearning.MediumObstacle)
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		t.Fatal("nil policy")
	}
	if rec.Params <= 0 || rec.TrainSteps <= 0 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.SuccessRate < 0 || rec.SuccessRate > 1 {
		t.Fatalf("success rate %g outside [0,1]", rec.SuccessRate)
	}
}

func TestEngineTrainReinforce(t *testing.T) {
	cfg := TrainConfig{Algorithm: AlgReinforce, Episodes: 3, EvalEpisodes: 3, Seed: 8}
	rec, _, err := Engine(cfg).Train(context.Background(), policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Scenario != airlearning.LowObstacle {
		t.Fatalf("record scenario = %v", rec.Scenario)
	}
}

func TestEngineTrainRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	if _, _, err := Engine(TrainConfig{}).Train(ctx, policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle); err == nil {
		t.Fatal("expected error for zero budget")
	}
	bad := TrainConfig{Algorithm: Algorithm(99), Episodes: 1, EvalEpisodes: 1}
	if _, _, err := Engine(bad).Train(ctx, policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestEngineTrainHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A budget far beyond what could finish promptly: only cancellation
	// between episodes can make this return quickly.
	cfg := TrainConfig{Algorithm: AlgDQN, Episodes: 1_000_000, EvalEpisodes: 10, Seed: 9}
	start := time.Now()
	_, _, err := Engine(cfg).Train(ctx, policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if AlgDQN.String() != "dqn" || AlgReinforce.String() != "reinforce" {
		t.Fatal("bad algorithm names")
	}
}

// TestDQNUpdateAllocationsIndependentOfBatch pins that a steady-state update
// allocates nothing at all, at batch 4 and batch 16: no per-transition
// buffer, and no per-update parameter or gradient list.
func TestDQNUpdateAllocationsIndependentOfBatch(t *testing.T) {
	for _, batch := range []int{4, 16} {
		g := tensor.NewRNG(24)
		h := policy.Hyper{Layers: 3, Filters: 48}
		online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
		target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
		cfg := DefaultDQNConfig()
		cfg.BatchSize = batch
		d := NewDQN(online, target, cfg, 24)
		trainEpisodes(airlearning.NewEnv(airlearning.LowObstacle, 24), d, 2) // fills the replay buffer
		d.update()                                                           // sizes every buffer
		if n := testing.AllocsPerRun(10, d.update); n != 0 {
			t.Errorf("batch %d: update allocates %.1f times, want 0", batch, n)
		}
	}
}
