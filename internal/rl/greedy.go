package rl

import (
	"autopilot/internal/airlearning"
	"autopilot/internal/nn"
)

// GreedyPolicy is the frozen-network deployment policy: the argmax action
// under the network's values/logits. Act runs the network's Forward, which
// writes the layers' buffers, so one instance serves one goroutine; Replica
// gives each further goroutine an instance of its own.
type GreedyPolicy struct {
	Net *nn.MultiModal
}

// Act returns the argmax action for one observation.
func (g GreedyPolicy) Act(obs airlearning.Observation) int {
	return g.Net.Forward(obs.Image, obs.State).ArgMax()
}

// Replica returns the same policy over a replica of the network: the same
// parameters and actions, and forward buffers of its own.
func (g GreedyPolicy) Replica() airlearning.Policy {
	return GreedyPolicy{Net: g.Net.Replica()}
}
