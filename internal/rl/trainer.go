package rl

import (
	"fmt"

	"autopilot/internal/policy"
	"autopilot/internal/tensor"
	"autopilot/internal/train"
)

// Algorithm selects the RL method for Phase 1 training.
type Algorithm int

// Supported training algorithms.
const (
	AlgDQN Algorithm = iota
	AlgReinforce
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgDQN:
		return "dqn"
	case AlgReinforce:
		return "reinforce"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// TrainConfig parameterizes one Phase-1 training run.
type TrainConfig struct {
	Algorithm    Algorithm
	Episodes     int
	EvalEpisodes int
	Seed         int64
}

// DefaultTrainConfig returns a laptop-scale training budget.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Algorithm: AlgDQN, Episodes: 300, EvalEpisodes: 50, Seed: 1}
}

// Factory adapts cfg.Algorithm into the training engine's constructor seam:
// the returned train.Factory builds a fresh agent for each (hyper, seed)
// run. Construction is deterministic in the arguments alone — the same
// (hyper, seed) yields a bitwise-identical agent on any worker.
func Factory(cfg TrainConfig) train.Factory {
	return func(h policy.Hyper, seed int64) (train.Algorithm, error) {
		rng := tensor.NewRNG(seed)
		tcfg := policy.DefaultTrainable()
		switch cfg.Algorithm {
		case AlgDQN:
			online, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			target, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			return NewDQN(online, target, DefaultDQNConfig(), seed), nil
		case AlgReinforce:
			model, err := policy.NewTrainable(h, tcfg, rng)
			if err != nil {
				return nil, err
			}
			return NewReinforce(model, DefaultReinforceConfig(), seed), nil
		default:
			return nil, fmt.Errorf("rl: unknown algorithm %v", cfg.Algorithm)
		}
	}
}

// Engine returns a single-worker training engine for cfg. Call Train on it
// for one (hyper, scenario) run, or build a custom train.Config with Factory
// for sweeps.
func Engine(cfg TrainConfig) *train.Engine {
	return train.New(Factory(cfg), train.Config{
		Episodes:     cfg.Episodes,
		EvalEpisodes: cfg.EvalEpisodes,
		Seed:         cfg.Seed,
		Workers:      1,
	})
}
