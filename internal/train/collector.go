package train

import (
	"context"
	"fmt"

	"autopilot/internal/airlearning"
	"autopilot/internal/obs"
	"autopilot/internal/pool"
)

// RunTrainingEpisode rolls the algorithm's behavior policy through one
// episode, streaming every transition into the algorithm as it happens, and
// fires the episode-boundary hook. It is the engine's one training-episode
// loop.
func RunTrainingEpisode(env *airlearning.Env, alg Algorithm) airlearning.EpisodeResult {
	obs := env.Reset()
	var res airlearning.EpisodeResult
	for {
		a := alg.Act(obs)
		next, reward, done := env.Step(a)
		alg.Observe(airlearning.Transition{Obs: obs, Action: a, Reward: reward, Next: next, Done: done})
		res.Return += reward
		res.Steps++
		obs = next
		if done {
			res.Outcome = env.OutcomeNow()
			break
		}
	}
	alg.EndEpisode(res)
	return res
}

// Collector runs frozen-policy validation rollouts. The episodes are split
// into one contiguous chunk per pool worker, and a chunk runs its episodes
// one after another, each to completion on its own environment: episode i
// always uses an environment seeded Seed+i, so results are bitwise
// identical whatever the worker count, and independent of every other
// episode. A policy that offers replicas is evaluated through one replica
// per chunk; any other policy must be safe for concurrent use.
type Collector struct {
	Scenario airlearning.Scenario
	// Seed is the base evaluation seed; episode i uses Seed+int64(i).
	Seed int64
	// Workers bounds the rollout pool; <= 0 selects runtime.NumCPU().
	Workers int
	// Obs, when non-nil, counts evaluation episodes and env steps on its
	// registry. Nil collects with zero overhead.
	Obs *obs.Observer
}

// replicator is a policy whose instance serves one goroutine at a time (a
// network's Forward writes its buffers) and which can make more instances
// that act identically, one for each rollout worker.
type replicator interface {
	Replica() airlearning.Policy
}

// collectMetrics are the collector's instruments, resolved once per Collect
// so the rollouts touch no registry maps. All nil when Obs is nil.
type collectMetrics struct {
	episodes *obs.Counter // train.eval.episodes: validation episodes finished
	steps    *obs.Counter // train.eval.env_steps: env steps of finished episodes
}

// Collect rolls the policy through n domain-randomized episodes and returns
// the per-episode results in episode order. Cancellation is honored between
// env steps; the returned error wraps ctx.Err().
func (c Collector) Collect(ctx context.Context, p airlearning.Policy, n int) ([]airlearning.EpisodeResult, error) {
	if n <= 0 {
		return nil, nil
	}
	k := min(pool.Workers(c.Workers), n) // chunks, one per worker
	var m collectMetrics
	if c.Obs != nil {
		m = collectMetrics{
			episodes: c.Obs.Counter("train.eval.episodes"),
			steps:    c.Obs.Counter("train.eval.env_steps"),
		}
	}
	ctx = obs.NewContext(ctx, c.Obs)
	results := make([]airlearning.EpisodeResult, n)
	err := pool.Run(ctx, k, k, func(w int) error {
		pol := p
		if r, ok := p.(replicator); ok {
			pol = r.Replica()
		}
		for i := w * n / k; i < (w+1)*n/k; i++ {
			env := airlearning.NewEnv(c.Scenario, c.Seed+int64(i))
			res, err := airlearning.RunEpisodeContext(ctx, env, pol)
			if err != nil {
				return fmt.Errorf("train: evaluation cancelled: %w", err)
			}
			m.episodes.Inc()
			m.steps.Add(int64(res.Steps))
			results[i] = res // each chunk writes its own range
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SuccessRate validates a policy over n domain-randomized episodes and
// returns the fraction that reach the goal — the metric Phase 1 stores in
// the Air Learning database. It is the parallel, cancellable counterpart of
// airlearning.SuccessRate.
func (c Collector) SuccessRate(ctx context.Context, p airlearning.Policy, n int) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	results, err := c.Collect(ctx, p, n)
	if err != nil {
		return 0, err
	}
	wins := 0
	for _, r := range results {
		if r.Outcome == airlearning.Success {
			wins++
		}
	}
	return float64(wins) / float64(n), nil
}
