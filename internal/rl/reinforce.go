package rl

import (
	"math"

	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
	"autopilot/internal/tensor"
)

// ReinforceConfig holds REINFORCE hyper-parameters.
type ReinforceConfig struct {
	Gamma       float64
	LR          float64
	Baseline    float64 // EMA smoothing for the return baseline
	MaxGradNorm float64
}

// DefaultReinforceConfig returns settings tuned for the grid-world task.
func DefaultReinforceConfig() ReinforceConfig {
	return ReinforceConfig{Gamma: 0.97, LR: 5e-4, Baseline: 0.9, MaxGradNorm: 5}
}

// step is one on-policy trajectory entry.
type step struct {
	obs    airlearning.Observation
	action int
	reward float64
}

// Reinforce is a Monte-Carlo policy-gradient agent with an exponential
// moving-average return baseline. It accumulates the on-policy trajectory
// transition by transition (Observe) and applies the policy-gradient update
// at the episode boundary (EndEpisode).
type Reinforce struct {
	Model *nn.MultiModal

	cfg      ReinforceConfig
	opt      *nn.Adam
	rng      *tensor.RNG
	baseline float64
	primed   bool
	traj     []step
}

// NewReinforce wraps a policy network.
func NewReinforce(model *nn.MultiModal, cfg ReinforceConfig, seed int64) *Reinforce {
	return &Reinforce{Model: model, cfg: cfg, opt: nn.NewAdam(cfg.LR), rng: tensor.NewRNG(seed)}
}

// Name identifies the algorithm for the training engine's progress reports.
func (r *Reinforce) Name() string { return AlgReinforce.String() }

// sampleAction draws from the softmax policy.
func (r *Reinforce) sampleAction(obs airlearning.Observation) int {
	p := nn.Softmax(r.Model.Forward(obs.Image, obs.State))
	u := r.rng.Float64()
	acc := 0.0
	for i, v := range p.Data() {
		acc += v
		if u < acc {
			return i
		}
	}
	return p.Len() - 1
}

// Act samples the behavior-policy action.
func (r *Reinforce) Act(obs airlearning.Observation) int { return r.sampleAction(obs) }

// Observe appends the transition to the current on-policy trajectory.
func (r *Reinforce) Observe(t Transition) {
	r.traj = append(r.traj, step{obs: t.Obs, action: t.Action, reward: t.Reward})
}

// EndEpisode applies the policy-gradient update over the completed
// trajectory: discounted returns-to-go against the EMA baseline, one
// clipped Adam step.
func (r *Reinforce) EndEpisode(airlearning.EpisodeResult) {
	if len(r.traj) == 0 {
		return
	}
	// discounted returns-to-go
	G := make([]float64, len(r.traj))
	g := 0.0
	for i := len(r.traj) - 1; i >= 0; i-- {
		g = r.traj[i].reward + r.cfg.Gamma*g
		G[i] = g
	}
	if !r.primed {
		r.baseline, r.primed = G[0], true
	} else {
		r.baseline = r.cfg.Baseline*r.baseline + (1-r.cfg.Baseline)*G[0]
	}
	r.Model.ZeroGrads()
	scale := 1.0 / float64(len(r.traj))
	for i, s := range r.traj {
		logits := r.Model.Forward(s.obs.Image, s.obs.State)
		adv := G[i] - r.baseline*math.Pow(r.cfg.Gamma, float64(i))
		_, grad := nn.PolicyGradientLoss(logits, s.action, adv*scale)
		r.Model.Backward(grad)
	}
	nn.ClipGrads(r.Model.Grads(), r.cfg.MaxGradNorm)
	r.opt.Step(r.Model.Params(), r.Model.Grads())
	r.traj = r.traj[:0]
}

// Policy returns the greedy (argmax) deployment policy over the model.
func (r *Reinforce) Policy() airlearning.Policy {
	return GreedyPolicy{Net: r.Model}
}
