package moea

import (
	"fmt"
	"math"

	"autopilot/internal/pareto"
	"autopilot/internal/space"
	"autopilot/internal/tensor"
)

// RLConfig controls the reinforcement-learning optimizer.
type RLConfig struct {
	BatchSize int     // genomes sampled per policy update
	Updates   int     // policy-gradient updates
	LR        float64 // logit learning rate
	Entropy   float64 // entropy bonus keeping exploration alive
	Seed      int64
}

// DefaultRLConfig returns settings sized like the Phase-2 BO budget.
func DefaultRLConfig() RLConfig {
	return RLConfig{BatchSize: 12, Updates: 8, LR: 0.35, Entropy: 0.01, Seed: 1}
}

// RL is the RL-based design-space search the paper lists as a BO
// alternative (§III-B, citing Sutton & Barto): a factored categorical policy
// over the choice dimensions proposes a batch of genomes per call and is
// updated with REINFORCE once the batch is observed, Updates times. A
// genome's reward is its objectives' hypervolume contribution to those
// observed so far (pareto.Contribution), so a revisit, a repeat and a genome
// told nil earn zero.
type RL struct {
	cfg  RLConfig
	dims []int
	ref  []float64
	rng  *tensor.RNG

	logits  [][]float64 // independent logits per dimension
	probs   [][]float64 // the policy the last batch was sampled from
	batch   []space.Point
	updates int

	objs [][]float64 // objective vectors observed
}

// NewRL builds the policy-gradient searcher over genomes with the given
// per-dimension cardinalities; ref is the hypervolume reference point the
// rewards are measured against.
func NewRL(dims []int, ref []float64, cfg RLConfig) (*RL, error) {
	if err := checkProblem(dims, ref, true); err != nil {
		return nil, err
	}
	if len(ref) > 3 {
		return nil, fmt.Errorf("moea: RL rewards hypervolume in 1 to 3 objectives, not %d", len(ref))
	}
	if cfg.BatchSize < 2 || cfg.Updates < 1 {
		return nil, fmt.Errorf("moea: bad RL budget %+v", cfg)
	}
	logits := make([][]float64, len(dims))
	for i, d := range dims {
		logits[i] = make([]float64, d)
	}
	return &RL{cfg: cfg, dims: dims, ref: ref, rng: tensor.NewRNG(cfg.Seed), logits: logits}, nil
}

// Propose samples the next batch from the current policy, or returns
// nothing once every update has been made.
func (r *RL) Propose() ([]space.Point, error) {
	if r.updates == r.cfg.Updates {
		return nil, nil
	}
	r.updates++
	r.probs = make([][]float64, len(r.logits))
	for i := range r.logits {
		r.probs[i] = softmax(r.logits[i])
	}
	r.batch = make([]space.Point, r.cfg.BatchSize)
	for b := range r.batch {
		g := make(space.Point, len(r.dims))
		for i := range g {
			g[i] = r.sample(r.probs[i])
		}
		r.batch[b] = g
	}
	return r.batch, nil
}

// Observe rewards the observed prefix of the batch and takes one REINFORCE
// step with the batch-mean reward as baseline.
func (r *RL) Observe(ys [][]float64) {
	if len(ys) == 0 {
		return
	}
	rewards := make([]float64, len(ys))
	mean := 0.0
	for j, y := range ys {
		if y != nil {
			rewards[j] = pareto.Contribution(r.objs, y, r.ref)
			r.objs = append(r.objs, y)
		}
		mean += rewards[j]
	}
	mean /= float64(len(ys))
	for j, reward := range rewards {
		adv := reward - mean
		for i, choice := range r.batch[j] {
			for k := range r.logits[i] {
				p := r.probs[i][k]
				grad := -p
				if k == choice {
					grad += 1
				}
				r.logits[i][k] += r.cfg.LR * (adv*grad + r.cfg.Entropy*(-p*math.Log(p+1e-12)))
			}
		}
	}
}

// sample draws a choice index from a categorical distribution.
func (r *RL) sample(probs []float64) int {
	u := r.rng.Float64()
	acc := 0.0
	for i, v := range probs {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}

func softmax(l []float64) []float64 {
	mx := math.Inf(-1)
	for _, v := range l {
		mx = math.Max(mx, v)
	}
	out := make([]float64, len(l))
	sum := 0.0
	for i, v := range l {
		out[i] = math.Exp(v - mx)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
