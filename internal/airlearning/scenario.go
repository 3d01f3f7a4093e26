// Package airlearning is the Air Learning substitute: a deterministic
// grid-world UAV navigation simulator with the paper's domain-randomization
// structure (configurable arena, fixed + randomly placed obstacles, random
// goal every episode), an episode/rollout harness, a policy database, and a
// calibrated success-rate surrogate used by the experiment harness in place
// of multi-day RL training.
package airlearning

import "fmt"

// Scenario is a deployment complexity class (paper §V-A).
type Scenario int

// The three deployment scenarios evaluated in the paper.
const (
	LowObstacle Scenario = iota
	MediumObstacle
	DenseObstacle
)

// Scenarios lists all deployment scenarios in paper order.
var Scenarios = []Scenario{LowObstacle, MediumObstacle, DenseObstacle}

// String returns the paper's name for the scenario.
func (s Scenario) String() string {
	switch s {
	case LowObstacle:
		return "low-obstacle"
	case MediumObstacle:
		return "medium-obstacle"
	case DenseObstacle:
		return "dense-obstacle"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// EnvConfig describes one domain-randomized environment family.
type EnvConfig struct {
	ArenaW, ArenaH int // arena size in cells
	FixedObstacles int // obstacles at deterministic positions
	RandomMax      int // up to this many randomly placed obstacles per episode
	ObstacleSize   int // obstacles are ObstacleSize×ObstacleSize cell blocks
	MaxSteps       int // episode step budget
}

// Config returns the environment-generator parameters for the scenario,
// matching §V-A: low = 4 randomly placed obstacles with a random goal each
// episode; medium = 4 fixed + up to 3 random; dense = 4 fixed + up to 5
// random.
func (s Scenario) Config() EnvConfig {
	base := EnvConfig{ArenaW: 21, ArenaH: 21, ObstacleSize: 2, MaxSteps: 120}
	switch s {
	case LowObstacle:
		base.FixedObstacles = 0
		base.RandomMax = 4
	case MediumObstacle:
		base.FixedObstacles = 4
		base.RandomMax = 3
	case DenseObstacle:
		base.FixedObstacles = 4
		base.RandomMax = 5
	default:
		panic(fmt.Sprintf("airlearning: unknown scenario %d", int(s)))
	}
	return base
}

// ObstacleDensity returns the mean fraction of arena cells covered by
// obstacles for the scenario, used by the F-1 decision-spacing model.
func (s Scenario) ObstacleDensity() float64 {
	cfg := s.Config()
	mean := float64(cfg.FixedObstacles) + float64(cfg.RandomMax)/2
	cells := float64(cfg.ObstacleSize * cfg.ObstacleSize)
	return mean * cells / float64(cfg.ArenaW*cfg.ArenaH)
}
