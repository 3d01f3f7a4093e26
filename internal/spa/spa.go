// Package spa implements the Sense-Plan-Act autonomy paradigm the paper
// contrasts with E2E learning (§II) and describes as the first extension of
// the AutoPilot methodology (§VII, "UAV with SPA Autonomy Algorithms"): an
// occupancy-grid mapper fed by a simulated range sensor, an A* motion
// planner over the map, and a waypoint-following controller. The pipeline
// runs as a drop-in airlearning.Policy, and every stage carries an
// operation-count model so a compute budget translates into an SPA action
// throughput for the F-1 back end — mirroring how MAVBench-style stacks
// would replace Air Learning in Phase 1 and SLAM/planning accelerator
// templates would replace the systolic array in Phase 2.
package spa

import (
	"container/heap"
	"math"

	"autopilot/internal/airlearning"
)

// OccupancyGrid is the mapper's belief over arena cells.
type OccupancyGrid struct {
	W, H    int
	cells   []float64 // occupancy probability estimate
	visited []bool
}

// NewOccupancyGrid returns an unknown map with the pessimistic prior that
// unvisited space may be occupied with probability 0.5.
func NewOccupancyGrid(w, h int) *OccupancyGrid {
	g := &OccupancyGrid{W: w, H: h, cells: make([]float64, w*h), visited: make([]bool, w*h)}
	for i := range g.cells {
		g.cells[i] = 0.5
	}
	return g
}

func (g *OccupancyGrid) idx(p airlearning.Point) int { return p.Y*g.W + p.X }

// InBounds reports whether the cell lies inside the grid.
func (g *OccupancyGrid) InBounds(p airlearning.Point) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// Observe fuses one cell observation (occupied or free) into the map.
func (g *OccupancyGrid) Observe(p airlearning.Point, occupied bool) {
	if !g.InBounds(p) {
		return
	}
	i := g.idx(p)
	g.visited[i] = true
	if occupied {
		g.cells[i] = 1
	} else {
		g.cells[i] = 0
	}
}

// Occupied reports whether the planner should treat the cell as blocked:
// known-occupied cells are blocked; unknown cells are traversable (optimistic
// planning, standard for exploration).
func (g *OccupancyGrid) Occupied(p airlearning.Point) bool {
	if !g.InBounds(p) {
		return true
	}
	i := g.idx(p)
	return g.visited[i] && g.cells[i] > 0.5
}

// dirs8 are the 8-connected moves matching the airlearning action space.
var dirs8 = [8]airlearning.Point{
	{X: 0, Y: -1}, {X: 1, Y: -1}, {X: 1, Y: 0}, {X: 1, Y: 1},
	{X: 0, Y: 1}, {X: -1, Y: 1}, {X: -1, Y: 0}, {X: -1, Y: -1},
}

// AStar plans a shortest path on the occupancy grid from start to goal using
// octile-distance heuristics. It returns the path including both endpoints,
// the number of nodes expanded (the planner's work metric), and false if no
// path exists.
func AStar(grid *OccupancyGrid, start, goal airlearning.Point) (path []airlearning.Point, expanded int, ok bool) {
	if grid.Occupied(start) || grid.Occupied(goal) {
		return nil, 0, false
	}
	type node struct {
		p airlearning.Point
		f float64
	}
	h := func(p airlearning.Point) float64 {
		dx := math.Abs(float64(p.X - goal.X))
		dy := math.Abs(float64(p.Y - goal.Y))
		return math.Max(dx, dy) + (math.Sqrt2-1)*math.Min(dx, dy)
	}
	dist := map[airlearning.Point]float64{start: 0}
	prev := map[airlearning.Point]airlearning.Point{}
	pq := &nodeHeap{}
	heap.Push(pq, heapNode{p: start, f: h(start)})
	closed := map[airlearning.Point]bool{}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(heapNode)
		if closed[cur.p] {
			continue
		}
		closed[cur.p] = true
		expanded++
		if cur.p == goal {
			p := goal
			for {
				path = append([]airlearning.Point{p}, path...)
				if p == start {
					return path, expanded, true
				}
				p = prev[p]
			}
		}
		for _, d := range dirs8 {
			next := airlearning.Point{X: cur.p.X + d.X, Y: cur.p.Y + d.Y}
			if grid.Occupied(next) || closed[next] {
				continue
			}
			step := 1.0
			if d.X != 0 && d.Y != 0 {
				step = math.Sqrt2
			}
			nd := dist[cur.p] + step
			if old, seen := dist[next]; !seen || nd < old {
				dist[next] = nd
				prev[next] = cur.p
				heap.Push(pq, heapNode{p: next, f: nd + h(next)})
			}
		}
	}
	return nil, expanded, false
}

type heapNode struct {
	p airlearning.Point
	f float64
}

type nodeHeap []heapNode

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].f < h[j].f }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(heapNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Pipeline is the SPA policy with per-stage work accounting.
type Pipeline struct {
	env  *airlearning.Env
	grid *OccupancyGrid

	// work counters, accumulated over the episode
	SenseOps, PlanOps, ActOps int64
	Replans                   int

	path []airlearning.Point
}

// NewPipeline builds an SPA policy for an environment. The mapper starts
// blank and is filled from the egocentric observations as the UAV flies.
func NewPipeline(env *airlearning.Env) *Pipeline {
	cfg := env.Config()
	return &Pipeline{env: env, grid: NewOccupancyGrid(cfg.ArenaW, cfg.ArenaH)}
}

// Act implements airlearning.Policy: sense (fuse the observation window into
// the map), plan (A*, replanned when the current path is invalidated), act
// (emit the move along the path).
func (pl *Pipeline) Act(obs airlearning.Observation) int {
	pos := pl.env.Pos()
	// --- Sense: fuse the egocentric window into the occupancy grid.
	half := airlearning.ObsWindow / 2
	for dy := -half; dy <= half; dy++ {
		for dx := -half; dx <= half; dx++ {
			p := airlearning.Point{X: pos.X + dx, Y: pos.Y + dy}
			if !pl.grid.InBounds(p) {
				continue
			}
			pl.grid.Observe(p, obs.Image.At(0, dy+half, dx+half) > 0.5)
			pl.SenseOps += 4 // fuse: read, compare, write, mark
		}
	}
	// --- Plan: replan when off-path, path empty, or path now blocked.
	if !pl.pathValid(pos) {
		path, expanded, ok := AStar(pl.grid, pos, pl.env.Goal())
		pl.PlanOps += int64(expanded) * 24 // per-expansion cost: heap + 8 neighbors
		pl.Replans++
		if !ok {
			pl.path = nil
		} else {
			pl.path = path
		}
	}
	// --- Act: follow the path.
	pl.ActOps += 8
	if len(pl.path) < 2 {
		return 0 // trapped; any move ends the episode or times out
	}
	step := airlearning.Point{X: pl.path[1].X - pos.X, Y: pl.path[1].Y - pos.Y}
	pl.path = pl.path[1:]
	for i, d := range dirs8 {
		if d == step {
			return i
		}
	}
	return 0
}

// pathValid reports whether the current path still starts at pos and is
// collision-free on the updated map.
func (pl *Pipeline) pathValid(pos airlearning.Point) bool {
	if len(pl.path) < 2 || pl.path[0] != pos {
		return false
	}
	for _, p := range pl.path[1:] {
		if pl.grid.Occupied(p) {
			return false
		}
	}
	return true
}

// TotalOps returns the pipeline's accumulated work.
func (pl *Pipeline) TotalOps() int64 { return pl.SenseOps + pl.PlanOps + pl.ActOps }

// Stats summarizes the measured SPA pipeline behaviour over a batch of
// episodes: the validated task success (the SPA analogue of the Phase-1
// database entry) and the per-decision compute work that lowers into an
// hw.SPAWorkload for the cost-model layer.
type Stats struct {
	Scenario          airlearning.Scenario
	Episodes          int
	SuccessRate       float64
	StepsPerEpisode   float64
	OpsPerDecision    float64
	ReplansPerEpisode float64
}

// Measure runs the SPA pipeline for a number of episodes on a scenario and
// returns its aggregate work statistics. Results are deterministic for a
// given seed.
func Measure(scen airlearning.Scenario, episodes int, seed int64) Stats {
	env := airlearning.NewEnv(scen, seed)
	st := Stats{Scenario: scen, Episodes: episodes}
	wins, steps := 0, 0
	var ops float64
	var replans int
	for ep := 0; ep < episodes; ep++ {
		pl := NewPipeline(env)
		res := airlearning.RunEpisode(env, pl)
		if res.Outcome == airlearning.Success {
			wins++
		}
		steps += res.Steps
		ops += float64(pl.TotalOps())
		replans += pl.Replans
	}
	if episodes > 0 {
		st.SuccessRate = float64(wins) / float64(episodes)
		st.StepsPerEpisode = float64(steps) / float64(episodes)
		st.ReplansPerEpisode = float64(replans) / float64(episodes)
	}
	if steps > 0 {
		st.OpsPerDecision = ops / float64(steps)
	}
	return st
}
