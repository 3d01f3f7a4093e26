package airlearning

import (
	"autopilot/internal/policy"
)

// Algorithm-aware success surrogate. The validated-policy database is
// calibrated against the paper's DQN agent; co-searching the training
// algorithm (the AutoSoC direction) needs success rates for the other
// members of the train.Algorithm family without multi-day retraining. The
// adjustment below is a deterministic calibrated delta applied on top of
// the DQN base rate, mirroring how SurrogateDB stands in for Phase-1
// training (DESIGN.md §1):
//
//   - "dqn" (and the legacy empty name) is the identity — the database IS
//     the DQN calibration;
//   - "reinforce" reflects the on-policy trade-off Air Learning reports:
//     Monte-Carlo policy gradients train small policies well (lower bias
//     on short-horizon credit assignment) but degrade with depth as
//     gradient variance grows — better than DQN at 2–3 layers, worse past
//     ~6.
//
// The deltas keep every rate inside the paper's observed band, so Pareto
// structure downstream stays physically plausible.

// KnownAlgorithm reports whether name is a searchable training algorithm.
func KnownAlgorithm(name string) bool {
	switch name {
	case "", AlgorithmDQN, AlgorithmReinforce:
		return true
	}
	return false
}

// Training-algorithm names, matching rl.Algorithm.String (rl imports this
// package, so the names are declared here and pinned by tests there).
const (
	AlgorithmDQN       = "dqn"
	AlgorithmReinforce = "reinforce"
)

// AlgorithmSuccess maps a DQN-calibrated base success rate onto the named
// training algorithm for a model. A zero base (untrained/unknown model)
// stays zero, and unknown algorithm names score zero so they can never win
// a search by accident.
func AlgorithmSuccess(alg string, h policy.Hyper, base float64) float64 {
	if base <= 0 {
		return 0
	}
	switch alg {
	case "", AlgorithmDQN:
		return base
	case AlgorithmReinforce:
		rate := base + 0.08 - 0.02*float64(h.Layers-2)
		if rate < 0 {
			rate = 0
		}
		if rate > 0.97 {
			rate = 0.97
		}
		return rate
	}
	return 0
}

// BestHyperFor returns the hyper-parameters with the highest
// algorithm-adjusted success rate for a scenario — the per-algorithm
// analogue of Database.Best. Iteration runs over the ID-sorted record list
// with strictly-greater replacement, so ties break toward the
// lexicographically smallest ID and the result is deterministic however
// the database was populated.
func BestHyperFor(db *Database, s Scenario, alg string) (policy.Hyper, float64, bool) {
	var best policy.Hyper
	bestRate := 0.0
	found := false
	for _, r := range db.All() {
		if r.Scenario != s {
			continue
		}
		rate := AlgorithmSuccess(alg, r.Hyper, r.SuccessRate)
		if !found || rate > bestRate {
			best, bestRate, found = r.Hyper, rate, true
		}
	}
	return best, bestRate, found
}
