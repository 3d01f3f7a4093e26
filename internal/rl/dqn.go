package rl

import (
	"math"

	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
	"autopilot/internal/tensor"
)

// DQNConfig holds the DQN hyper-parameters.
type DQNConfig struct {
	Gamma         float64 // discount factor
	LR            float64 // Adam learning rate
	EpsStart      float64 // initial exploration rate
	EpsEnd        float64 // final exploration rate
	EpsDecaySteps int     // env steps over which epsilon anneals linearly
	BufferSize    int     // replay capacity
	BatchSize     int     // transitions per update
	TargetSync    int     // env steps between target-network syncs
	LearnStart    int     // env steps before updates begin
	UpdateEvery   int     // env steps between gradient updates
	MaxGradNorm   float64 // gradient clipping threshold
}

// DefaultDQNConfig returns settings tuned for the grid-world navigation task.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Gamma:         0.97,
		LR:            1e-3,
		EpsStart:      1.0,
		EpsEnd:        0.05,
		EpsDecaySteps: 4000,
		BufferSize:    5000,
		BatchSize:     16,
		TargetSync:    250,
		LearnStart:    200,
		UpdateEvery:   2,
		MaxGradNorm:   5,
	}
}

// DQN is a Deep Q-Network agent over the multi-modal policy template.
type DQN struct {
	Online *nn.MultiModal
	Target *nn.MultiModal

	cfg    DQNConfig
	opt    *nn.Adam
	buffer *ReplayBuffer
	rng    *tensor.RNG
	steps  int
	epoch  int            // target syncs so far, counting the one in NewDQN
	grad   *tensor.Tensor // dLoss/dQ of one transition, reused across updates
}

// NewDQN wraps an online/target network pair. The target is immediately
// synchronized to the online network. From then on the DQN alone changes
// the target's parameters, at its syncs: the replay buffer caches target
// values until the next one.
func NewDQN(online, target *nn.MultiModal, cfg DQNConfig, seed int64) *DQN {
	target.CopyParamsFrom(online)
	return &DQN{
		Online: online,
		Target: target,
		cfg:    cfg,
		opt:    nn.NewAdam(cfg.LR),
		buffer: NewReplayBuffer(cfg.BufferSize),
		rng:    tensor.NewRNG(seed),
		epoch:  1,
	}
}

// Epsilon returns the current exploration rate.
func (d *DQN) Epsilon() float64 {
	frac := float64(d.steps) / float64(d.cfg.EpsDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return d.cfg.EpsStart + frac*(d.cfg.EpsEnd-d.cfg.EpsStart)
}

// Act selects an epsilon-greedy action.
func (d *DQN) Act(obs airlearning.Observation) int {
	if d.rng.Float64() < d.Epsilon() {
		return d.rng.Intn(airlearning.NumActions)
	}
	return d.Greedy(obs)
}

// Greedy returns the argmax-Q action.
func (d *DQN) Greedy(obs airlearning.Observation) int {
	return d.Online.Forward(obs.Image, obs.State).ArgMax()
}

// Name identifies the algorithm for the training engine's progress reports.
func (d *DQN) Name() string { return AlgDQN.String() }

// Policy returns the greedy deployment policy over the online network.
func (d *DQN) Policy() airlearning.Policy {
	return GreedyPolicy{Net: d.Online}
}

// Observe records a transition and runs updates on schedule — the hook the
// training engine streams rollout transitions into.
func (d *DQN) Observe(t Transition) {
	d.buffer.Add(t)
	d.steps++
	if d.steps >= d.cfg.LearnStart && d.steps%d.cfg.UpdateEvery == 0 {
		d.update()
	}
	if d.steps%d.cfg.TargetSync == 0 {
		d.Target.CopyParamsFrom(d.Online)
		d.epoch++
	}
}

// EndEpisode is a no-op: DQN updates on its per-step schedule.
func (d *DQN) EndEpisode(airlearning.EpisodeResult) {}

// update performs one minibatch Q-learning step over BatchSize slots drawn
// uniformly with replacement. The networks' Forward and Backward reuse
// their layer buffers, so the per-transition work allocates nothing.
func (d *DQN) update() {
	d.Online.ZeroGrads()
	for i := 0; i < d.cfg.BatchSize; i++ {
		s := d.buffer.draw(d.rng)
		t := &s.t
		target := t.Reward
		if !t.Done {
			target += d.cfg.Gamma * d.bootstrap(s)
		}
		q := d.Online.Forward(t.Obs.Image, t.Obs.State)
		// gradient only on the taken action, Huber-style
		if d.grad == nil {
			d.grad = tensor.New(q.Len())
		}
		d.grad.Zero()
		diff := q.Data()[t.Action] - target
		d.grad.Data()[t.Action] = clamp(diff, -1, 1) / float64(d.cfg.BatchSize)
		d.Online.Backward(d.grad)
	}
	nn.ClipGrads(d.Online.Grads(), d.cfg.MaxGradNorm)
	d.opt.Step(d.Online.Params(), d.Online.Grads())
}

// bootstrap returns max_a Q_target(s′) for the slot's transition. The target
// is frozen between syncs, so a value computed since the last sync is
// reused, and only a slot without one runs the target network.
func (d *DQN) bootstrap(s *slot) float64 {
	if s.epoch != d.epoch {
		s.next, _ = d.Target.Forward(s.t.Next.Image, s.t.Next.State).Max()
		s.epoch = d.epoch
	}
	return s.next
}

func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}
