// Package rl implements the reinforcement-learning algorithms Phase 1 uses
// to train E2E navigation policies on the airlearning simulator: DQN with a
// replay buffer and target network, and REINFORCE with a baseline. Both
// operate on the multi-modal policy template and plug into the Phase-1
// training engine (internal/train) behind its Algorithm interface, via
// Factory.
package rl

import (
	"autopilot/internal/airlearning"
	"autopilot/internal/tensor"
)

// Transition is one (s, a, r, s', done) tuple. It is an alias for the
// environment-level airlearning.Transition the training engine streams.
type Transition = airlearning.Transition

// ReplayBuffer is a fixed-capacity ring buffer of transitions. Each slot
// also keeps its transition's bootstrap value, max_a Q_target(s′), for the
// target-network epoch that computed it.
type ReplayBuffer struct {
	slots []slot
	idx   int
	n     int
}

// slot is one stored transition and its cached bootstrap value.
type slot struct {
	t Transition
	// next is max_a Q_target(t.Next), valid while epoch equals the DQN's
	// target epoch. Epochs start at 1, so the zero slot Add writes holds
	// no value.
	next  float64
	epoch int
}

// NewReplayBuffer returns a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay buffer capacity must be positive")
	}
	return &ReplayBuffer{slots: make([]slot, capacity)}
}

// Add appends a transition, evicting the oldest once full. The overwritten
// slot's cached bootstrap value goes with it.
func (b *ReplayBuffer) Add(t Transition) {
	b.slots[b.idx] = slot{t: t}
	b.idx = (b.idx + 1) % len(b.slots)
	if b.n < len(b.slots) {
		b.n++
	}
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return b.n }

// draw returns a stored slot drawn uniformly, or nil when the buffer is
// empty.
func (b *ReplayBuffer) draw(g *tensor.RNG) *slot {
	if b.n == 0 {
		return nil
	}
	return &b.slots[g.Intn(b.n)]
}
