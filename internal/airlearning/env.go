package airlearning

import (
	"fmt"
	"math"
	"slices"

	"autopilot/internal/tensor"
)

// Point is a cell coordinate in the arena.
type Point struct{ X, Y int }

// ObsWindow is the side length of the egocentric observation crop.
const ObsWindow = 11

// StateDim is the width of the state (goal/odometry) vector.
const StateDim = 4

// NumActions is the discrete action count (8 compass moves).
const NumActions = 8

var dirs = [NumActions]Point{
	{0, -1},  // N
	{1, -1},  // NE
	{1, 0},   // E
	{1, 1},   // SE
	{0, 1},   // S
	{-1, 1},  // SW
	{-1, 0},  // W
	{-1, -1}, // NW
}

// Observation is what the policy sees: an egocentric occupancy image and a
// normalized goal vector — the two branches of the multi-modal template.
type Observation struct {
	Image *tensor.Tensor // (1, ObsWindow, ObsWindow) occupancy, 1 = blocked
	State *tensor.Tensor // (StateDim): dx, dy (normalized), distance, step fraction
}

// Outcome describes how an episode ended.
type Outcome int

// Episode outcomes.
const (
	Running Outcome = iota
	Success
	Collision
	Timeout
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Running:
		return "running"
	case Success:
		return "success"
	case Collision:
		return "collision"
	case Timeout:
		return "timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Env is one domain-randomized navigation environment instance. Each Reset
// draws a fresh obstacle layout and goal per the scenario's randomization.
type Env struct {
	Scenario Scenario
	cfg      EnvConfig
	rng      *tensor.RNG
	seed     int64 // construction seed, kept for layout-rescue re-derivation
	resets   int   // episode ordinal, part of the rescue-seed identity

	grid       []bool // true = blocked (static)
	pos, goal  Point
	steps      int
	outcome    Outcome
	totalDist0 float64

	// Breadth-first-search scratch, sized on first use: prev holds each
	// cell's predecessor (-1 for the search's start, -2 unvisited) and
	// queue the cells in the order the search visits them, both as cell
	// indices y*ArenaW+x.
	prev  []int32
	queue []int32
}

// NewEnv returns an environment for the scenario seeded deterministically.
func NewEnv(s Scenario, seed int64) *Env {
	return NewEnvWithConfig(s, s.Config(), seed)
}

// NewEnvWithConfig returns an environment with explicit parameters, e.g. a
// smaller arena for fast training runs.
func NewEnvWithConfig(s Scenario, cfg EnvConfig, seed int64) *Env {
	if cfg.ArenaW < ObsWindow || cfg.ArenaH < ObsWindow {
		panic(fmt.Sprintf("airlearning: arena %dx%d smaller than observation window %d",
			cfg.ArenaW, cfg.ArenaH, ObsWindow))
	}
	return &Env{
		Scenario: s,
		cfg:      cfg,
		rng:      tensor.NewRNG(seed),
		seed:     seed,
		grid:     make([]bool, cfg.ArenaW*cfg.ArenaH),
	}
}

// Config exposes the environment parameters.
func (e *Env) Config() EnvConfig { return e.cfg }

// Pos returns the UAV's current cell.
func (e *Env) Pos() Point { return e.pos }

// Goal returns this episode's goal cell.
func (e *Env) Goal() Point { return e.goal }

// OutcomeNow returns the current episode outcome.
func (e *Env) OutcomeNow() Outcome { return e.outcome }

// Blocked reports whether a cell is outside the arena or occupied by an
// obstacle.
func (e *Env) Blocked(p Point) bool {
	if p.X < 0 || p.X >= e.cfg.ArenaW || p.Y < 0 || p.Y >= e.cfg.ArenaH {
		return true
	}
	return e.grid[p.Y*e.cfg.ArenaW+p.X]
}

func (e *Env) placeBlock(topLeft Point) {
	for dy := 0; dy < e.cfg.ObstacleSize; dy++ {
		for dx := 0; dx < e.cfg.ObstacleSize; dx++ {
			x, y := topLeft.X+dx, topLeft.Y+dy
			if x >= 0 && x < e.cfg.ArenaW && y >= 0 && y < e.cfg.ArenaH {
				e.grid[y*e.cfg.ArenaW+x] = true
			}
		}
	}
}

// fixedObstaclePositions spreads the fixed obstacles over the arena interior
// deterministically (quarter points), as in the paper's fixed layouts.
func (e *Env) fixedObstaclePositions() []Point {
	w, h := e.cfg.ArenaW, e.cfg.ArenaH
	all := []Point{
		{w / 4, h / 4}, {3 * w / 4, h / 4},
		{w / 4, 3 * h / 4}, {3 * w / 4, 3 * h / 4},
		{w / 2, h / 2}, {w / 2, h / 4}, {w / 4, h / 2}, {3 * w / 4, h / 2},
	}
	if e.cfg.FixedObstacles > len(all) {
		panic("airlearning: too many fixed obstacles requested")
	}
	return all[:e.cfg.FixedObstacles]
}

// Layout-generation attempt budgets: the first maxLayoutAttempts draws come
// from the env's live seed stream (bitwise identical to the historical
// behavior whenever a solvable layout exists there); the rescue attempts
// each re-derive a fresh seed from the (env seed, episode, attempt) identity
// to escape a pathological stream before giving up.
const (
	maxLayoutAttempts    = 100
	rescueLayoutAttempts = 8
)

// LayoutError reports that Reset exhausted its attempt budget without
// producing a solvable domain-randomized layout — typically a scenario
// configuration whose obstacle density leaves no reachable goal.
type LayoutError struct {
	Scenario Scenario
	Attempts int
}

// Error renders the exhausted layout budget.
func (e *LayoutError) Error() string {
	return fmt.Sprintf("airlearning: could not generate a solvable %s layout in %d attempts",
		e.Scenario, e.Attempts)
}

// layoutSeed derives the deterministic rescue seed for one layout attempt
// (splitmix64-style finalizer over the env seed, episode ordinal, attempt).
func layoutSeed(seed int64, episode, attempt int) int64 {
	z := uint64(seed) + uint64(episode)*0x9E3779B97F4A7C15 + uint64(attempt)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// tryLayout draws one candidate layout (grid, start, goal) from rng and
// reports whether the goal was placeable and reachable. The draw order is
// the single source of the episode's layout randomness, so identical rng
// state always yields an identical layout.
func (e *Env) tryLayout(rng *tensor.RNG) bool {
	for i := range e.grid {
		e.grid[i] = false
	}
	for _, p := range e.fixedObstaclePositions() {
		e.placeBlock(p)
	}
	n := 0
	if e.cfg.RandomMax > 0 {
		n = rng.Intn(e.cfg.RandomMax + 1)
		if e.Scenario == LowObstacle {
			n = e.cfg.RandomMax // low scenario: exactly 4 obstacles, random positions
		}
	}
	for i := 0; i < n; i++ {
		e.placeBlock(Point{rng.Intn(e.cfg.ArenaW - 1), rng.Intn(e.cfg.ArenaH - 1)})
	}
	e.pos = Point{1, e.cfg.ArenaH - 2}
	e.grid[e.pos.Y*e.cfg.ArenaW+e.pos.X] = false
	// random goal, re-drawn every episode, away from the start
	ok := false
	for tries := 0; tries < 50; tries++ {
		g := Point{rng.Intn(e.cfg.ArenaW), rng.Intn(e.cfg.ArenaH)}
		if e.Blocked(g) || manhattan(g, e.pos) < (e.cfg.ArenaW+e.cfg.ArenaH)/3 {
			continue
		}
		e.goal = g
		ok = true
		break
	}
	if !ok {
		return false
	}
	return e.reachable(e.pos, e.goal)
}

// Reset draws a new domain-randomized layout and returns the first
// observation. It guarantees the goal is reachable from the start.
//
// Reset panics with a *LayoutError if the bounded attempt budget is
// exhausted; fault-tolerant callers should prefer TryReset, which returns
// the typed error instead.
func (e *Env) Reset() Observation {
	obs, err := e.TryReset()
	if err != nil {
		panic(err)
	}
	return obs
}

// TryReset is Reset with a typed error path: layout generation is bounded
// (maxLayoutAttempts draws from the live seed stream, then
// rescueLayoutAttempts on per-attempt re-derived seeds), and exhaustion
// returns a *LayoutError instead of panicking or spinning forever.
func (e *Env) TryReset() (Observation, error) {
	e.resets++
	solved := false
	for attempt := 0; attempt < maxLayoutAttempts+rescueLayoutAttempts; attempt++ {
		rng := e.rng
		if attempt >= maxLayoutAttempts {
			rng = tensor.NewRNG(layoutSeed(e.seed, e.resets, attempt))
		}
		if e.tryLayout(rng) {
			solved = true
			break
		}
	}
	if !solved {
		return Observation{}, &LayoutError{Scenario: e.Scenario, Attempts: maxLayoutAttempts + rescueLayoutAttempts}
	}
	e.steps = 0
	e.outcome = Running
	e.totalDist0 = euclid(e.pos, e.goal)
	return e.observe(), nil
}

// ShortestPath returns a BFS shortest path from `from` to `to` inclusive of
// both endpoints, or nil if unreachable. Exposed for the scripted expert
// policy and tests.
func (e *Env) ShortestPath(from, to Point) []Point {
	if !e.reachable(from, to) {
		return nil
	}
	w := e.cfg.ArenaW
	var path []Point
	for i := to.Y*w + to.X; i != -1; i = int(e.prev[i]) {
		path = append(path, Point{i % w, i / w})
	}
	slices.Reverse(path)
	return path
}

// reachable reports whether a path of 8-connected moves leads from one
// cell to the other. It runs a breadth-first search over the env's scratch
// until it dequeues `to`, and builds no path: e.prev holds the search tree,
// and following it from `to` leads back to `from`.
func (e *Env) reachable(from, to Point) bool {
	w, h := e.cfg.ArenaW, e.cfg.ArenaH
	if e.prev == nil {
		e.prev = make([]int32, w*h)
		e.queue = make([]int32, 0, w*h)
	}
	prev := e.prev
	for i := range prev {
		prev[i] = -2
	}
	start, goal := int32(from.Y*w+from.X), int32(to.Y*w+to.X)
	queue := append(e.queue[:0], start)
	prev[start] = -1
	for head := 0; head < len(queue); head++ {
		ci := queue[head]
		if ci == goal {
			return true
		}
		cur := Point{int(ci) % w, int(ci) / w}
		for _, d := range dirs {
			nxt := Point{cur.X + d.X, cur.Y + d.Y}
			ni := nxt.Y*w + nxt.X
			if e.Blocked(nxt) || prev[ni] != -2 {
				continue
			}
			prev[ni] = ci
			queue = append(queue, int32(ni))
		}
	}
	return false
}

// Step applies a discrete action. It returns the next observation, the
// shaped reward, and whether the episode ended.
func (e *Env) Step(action int) (Observation, float64, bool) {
	if e.outcome != Running {
		panic("airlearning: Step on a finished episode; call Reset")
	}
	if action < 0 || action >= NumActions {
		panic(fmt.Sprintf("airlearning: action %d outside [0,%d)", action, NumActions))
	}
	e.steps++
	prev := euclid(e.pos, e.goal)
	next := Point{e.pos.X + dirs[action].X, e.pos.Y + dirs[action].Y}
	if e.Blocked(next) {
		e.outcome = Collision
		return e.observe(), -1.0, true
	}
	e.pos = next
	if e.pos == e.goal {
		e.outcome = Success
		return e.observe(), 10.0, true
	}
	if e.steps >= e.cfg.MaxSteps {
		e.outcome = Timeout
		return e.observe(), -0.5, true
	}
	reward := (prev-euclid(e.pos, e.goal))*0.2 - 0.01
	return e.observe(), reward, false
}

func (e *Env) observe() Observation {
	img := tensor.New(1, ObsWindow, ObsWindow)
	half := ObsWindow / 2
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			p := Point{e.pos.X + dx, e.pos.Y + dy}
			if e.Blocked(p) {
				img.Set(1, 0, dy+half, dx+half)
			}
		}
	}
	st := tensor.New(StateDim)
	dx := float64(e.goal.X-e.pos.X) / float64(e.cfg.ArenaW)
	dy := float64(e.goal.Y-e.pos.Y) / float64(e.cfg.ArenaH)
	st.Set(dx, 0)
	st.Set(dy, 1)
	st.Set(euclid(e.pos, e.goal)/e.totalDist0, 2)
	st.Set(float64(e.steps)/float64(e.cfg.MaxSteps), 3)
	return Observation{Image: img, State: st}
}

func manhattan(a, b Point) int {
	return iabs(a.X-b.X) + iabs(a.Y-b.Y)
}

func euclid(a, b Point) float64 {
	dx, dy := float64(a.X-b.X), float64(a.Y-b.Y)
	return math.Sqrt(dx*dx + dy*dy)
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
