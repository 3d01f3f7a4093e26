package spa

import (
	"math"
	"slices"
	"testing"

	"autopilot/internal/airlearning"
)

func TestOccupancyGridUnknownPrior(t *testing.T) {
	g := NewOccupancyGrid(5, 5)
	p := airlearning.Point{X: 2, Y: 2}
	if g.Occupied(p) {
		t.Fatal("unknown cells must be optimistically traversable")
	}
	if slices.Contains(g.visited, true) {
		t.Fatal("fresh grid must be fully unknown")
	}
}

func TestOccupancyGridObserve(t *testing.T) {
	g := NewOccupancyGrid(5, 5)
	p := airlearning.Point{X: 1, Y: 3}
	g.Observe(p, true)
	if !g.Occupied(p) {
		t.Fatal("observed obstacle must block")
	}
	g.Observe(p, false)
	if g.Occupied(p) {
		t.Fatal("re-observed free cell must clear")
	}
	known := 0
	for _, v := range g.visited {
		if v {
			known++
		}
	}
	if known != 1 {
		t.Fatalf("%d known cells, want 1", known)
	}
}

func TestOccupancyGridBounds(t *testing.T) {
	g := NewOccupancyGrid(3, 3)
	out := airlearning.Point{X: -1, Y: 0}
	if !g.Occupied(out) {
		t.Fatal("out-of-bounds must be blocked")
	}
	g.Observe(out, false) // must not panic
}

func TestAStarStraightLine(t *testing.T) {
	g := NewOccupancyGrid(10, 10)
	path, expanded, ok := AStar(g, airlearning.Point{X: 0, Y: 0}, airlearning.Point{X: 9, Y: 9})
	if !ok {
		t.Fatal("path not found on empty grid")
	}
	if len(path) != 10 { // pure diagonal
		t.Fatalf("path length = %d, want 10", len(path))
	}
	if expanded <= 0 {
		t.Fatal("no work accounted")
	}
}

func TestAStarAvoidsWall(t *testing.T) {
	g := NewOccupancyGrid(10, 10)
	// vertical wall at x=5 with a gap at y=9
	for y := 0; y < 9; y++ {
		g.Observe(airlearning.Point{X: 5, Y: y}, true)
	}
	path, _, ok := AStar(g, airlearning.Point{X: 0, Y: 0}, airlearning.Point{X: 9, Y: 0})
	if !ok {
		t.Fatal("path through the gap not found")
	}
	for _, p := range path {
		if g.Occupied(p) {
			t.Fatalf("path crosses obstacle at %v", p)
		}
	}
	// must detour down to the gap
	maxY := 0
	for _, p := range path {
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxY < 8 {
		t.Fatalf("path did not reach the gap (maxY=%d)", maxY)
	}
}

func TestAStarNoPath(t *testing.T) {
	g := NewOccupancyGrid(7, 7)
	for y := 0; y < 7; y++ {
		g.Observe(airlearning.Point{X: 3, Y: y}, true)
	}
	if _, _, ok := AStar(g, airlearning.Point{X: 0, Y: 0}, airlearning.Point{X: 6, Y: 0}); ok {
		t.Fatal("found a path through a full wall")
	}
}

func TestAStarBlockedEndpoints(t *testing.T) {
	g := NewOccupancyGrid(5, 5)
	p := airlearning.Point{X: 2, Y: 2}
	g.Observe(p, true)
	if _, _, ok := AStar(g, p, airlearning.Point{X: 4, Y: 4}); ok {
		t.Fatal("path from a blocked start")
	}
	if _, _, ok := AStar(g, airlearning.Point{X: 0, Y: 0}, p); ok {
		t.Fatal("path to a blocked goal")
	}
}

func TestAStarOptimalLength(t *testing.T) {
	// cost on an empty grid must equal the octile distance
	g := NewOccupancyGrid(12, 12)
	path, _, ok := AStar(g, airlearning.Point{X: 0, Y: 0}, airlearning.Point{X: 7, Y: 3})
	if !ok {
		t.Fatal("no path")
	}
	cost := 0.0
	for i := 1; i < len(path); i++ {
		dx, dy := path[i].X-path[i-1].X, path[i].Y-path[i-1].Y
		if dx != 0 && dy != 0 {
			cost += math.Sqrt2
		} else {
			cost += 1
		}
	}
	want := 4 + 3*math.Sqrt2 // 4 straight + 3 diagonal
	if math.Abs(cost-want) > 1e-9 {
		t.Fatalf("path cost = %g, want optimal %g", cost, want)
	}
}

func TestPipelineNavigatesAllScenarios(t *testing.T) {
	for _, scen := range airlearning.Scenarios {
		env := airlearning.NewEnv(scen, 5)
		wins := 0
		const episodes = 15
		for ep := 0; ep < episodes; ep++ {
			pl := NewPipeline(env)
			res := airlearning.RunEpisode(env, pl)
			if res.Outcome == airlearning.Success {
				wins++
			}
		}
		rate := float64(wins) / episodes
		if rate < 0.8 {
			t.Errorf("%v: SPA success rate %.2f, want >= 0.8", scen, rate)
		}
	}
}

func TestPipelineAccountsWork(t *testing.T) {
	env := airlearning.NewEnv(airlearning.MediumObstacle, 9)
	pl := NewPipeline(env)
	airlearning.RunEpisode(env, pl)
	if pl.SenseOps <= 0 || pl.PlanOps <= 0 || pl.ActOps <= 0 {
		t.Fatalf("work counters: sense=%d plan=%d act=%d", pl.SenseOps, pl.PlanOps, pl.ActOps)
	}
	if pl.TotalOps() != pl.SenseOps+pl.PlanOps+pl.ActOps {
		t.Fatal("TotalOps must sum the stages")
	}
	if pl.Replans < 1 {
		t.Fatal("pipeline never planned")
	}
	if !slices.Contains(pl.grid.visited, true) {
		t.Fatal("mapper learned nothing")
	}
}

func TestPipelinePlansDominateCompute(t *testing.T) {
	// the SPA premise the paper cites: mapping+planning dwarf the control
	// stage computationally
	env := airlearning.NewEnv(airlearning.DenseObstacle, 11)
	pl := NewPipeline(env)
	airlearning.RunEpisode(env, pl)
	if pl.ActOps*10 > pl.SenseOps+pl.PlanOps {
		t.Fatalf("act ops %d not negligible vs sense+plan %d", pl.ActOps, pl.SenseOps+pl.PlanOps)
	}
}
