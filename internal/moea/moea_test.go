package moea

import (
	"fmt"
	"math"
	"testing"

	"autopilot/internal/pareto"
	"autopilot/internal/space"
)

// proposer is the ask/tell contract the optimizers implement.
type proposer interface {
	Propose() ([]space.Point, error)
	Observe(ys [][]float64)
}

// biObjective is a two-objective function on an n×n grid with a known front
// at gene1 = 0: f1 = a, f2 = b + (1-a)².
func biObjective(n int) func(g space.Point) []float64 {
	return func(g space.Point) []float64 {
		a := float64(g[0]) / float64(n-1)
		b := float64(g[1]) / float64(n-1)
		return []float64{a, b + (1-a)*(1-a)}
	}
}

var biRef = []float64{2, 3}

// run is one driven optimization: the distinct genomes scored, in order,
// the genomes proposed and observed, the rounds, and how many genomes the
// budget cut from the last proposal.
type run struct {
	evaluated       []Individual
	proposed, told  int
	lastCut, rounds int
}

// drive runs an optimizer the way the dse search loop does, to a budget of
// distinct genomes that returned objectives: a revisit is answered from the
// record without calling f, a nil result is used up without counting, and a
// proposal that would pass the budget is cut before its first new genome
// past it.
func drive(t *testing.T, opt proposer, f func(space.Point) []float64, budget int) run {
	t.Helper()
	var r run
	done := map[string][]float64{}
	for len(r.evaluated) < budget {
		pts, err := opt.Propose()
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) == 0 {
			break
		}
		r.rounds++
		r.proposed += len(pts)
		var ys [][]float64
		fresh, left := 0, budget-len(r.evaluated)
		for _, g := range pts {
			k := fmt.Sprint(g)
			y, seen := done[k]
			if !seen {
				if fresh == left {
					break
				}
				fresh++
				y = f(g)
				done[k] = y
				if y != nil {
					r.evaluated = append(r.evaluated, Individual{Genome: g.Clone(), Objectives: y})
				}
			}
			ys = append(ys, y)
		}
		r.lastCut = len(pts) - len(ys)
		r.told += len(ys)
		opt.Observe(ys)
	}
	return r
}

// front returns the non-dominated individuals of a run.
func (r run) front() []Individual {
	objs := make([][]float64, len(r.evaluated))
	for i, ind := range r.evaluated {
		objs[i] = ind.Objectives
	}
	var out []Individual
	for _, i := range pareto.NonDominated(objs) {
		out = append(out, r.evaluated[i])
	}
	return out
}

// bestSum is the smallest f1+f2 a run scored.
func (r run) bestSum() float64 {
	best := math.Inf(1)
	for _, ind := range r.evaluated {
		best = math.Min(best, ind.Objectives[0]+ind.Objectives[1])
	}
	return best
}

func mustGA(t *testing.T, dims []int, cfg GAConfig) *GA {
	t.Helper()
	ga, err := NewGA(dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ga
}

func mustSA(t *testing.T, dims []int, cfg SAConfig) *SA {
	t.Helper()
	sa, err := NewSA(dims, biRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func mustRL(t *testing.T, dims []int, cfg RLConfig) *RL {
	t.Helper()
	rl, err := NewRL(dims, biRef, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rl
}

// TestProblemValidate: every constructor rejects an empty genome, a
// zero-cardinality dimension and, where the optimizer uses one, an empty
// reference point; RL also rejects more objectives than its reward takes.
func TestProblemValidate(t *testing.T) {
	for _, dims := range [][]int{nil, {0}, {3, 0}} {
		if _, err := NewGA(dims, DefaultGAConfig()); err == nil {
			t.Errorf("GA accepted dims %v", dims)
		}
		if _, err := NewSA(dims, biRef, DefaultSAConfig()); err == nil {
			t.Errorf("SA accepted dims %v", dims)
		}
		if _, err := NewRL(dims, biRef, DefaultRLConfig()); err == nil {
			t.Errorf("RL accepted dims %v", dims)
		}
	}
	if _, err := NewSA([]int{3}, nil, DefaultSAConfig()); err == nil {
		t.Error("SA accepted an empty reference point")
	}
	if _, err := NewRL([]int{3}, nil, DefaultRLConfig()); err == nil {
		t.Error("RL accepted an empty reference point")
	}
	if _, err := NewRL([]int{3}, make([]float64, 4), DefaultRLConfig()); err == nil {
		t.Error("RL accepted four objectives, beyond its hypervolume reward")
	}
	if _, err := NewGA([]int{5, 5}, DefaultGAConfig()); err != nil {
		t.Errorf("GA rejected a good problem: %v", err)
	}
}

func TestNSGA2FindsTrueFront(t *testing.T) {
	r := drive(t, mustGA(t, []int{16, 16}, DefaultGAConfig()), biObjective(16), 120)
	front := r.front()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	onTrue := 0
	for _, ind := range front {
		if ind.Genome[1] == 0 {
			onTrue++
		}
	}
	if onTrue < 3 {
		t.Fatalf("only %d true-front points found", onTrue)
	}
}

// TestNSGA2BudgetRespected: cut at a budget the GA observes a prefix of a
// generation; unbounded it stops after Generations generations.
func TestNSGA2BudgetRespected(t *testing.T) {
	r := drive(t, mustGA(t, []int{32, 32}, DefaultGAConfig()), biObjective(32), 30)
	if len(r.evaluated) != 30 {
		t.Fatalf("evals = %d, budget 30", len(r.evaluated))
	}
	if r.lastCut == 0 {
		t.Fatal("the budget should cut the first generation of offspring")
	}
	cfg := DefaultGAConfig()
	r = drive(t, mustGA(t, []int{32, 32}, cfg), biObjective(32), 1<<20)
	if want := cfg.Population * (cfg.Generations + 1); r.proposed != want || r.rounds != cfg.Generations+1 {
		t.Fatalf("unbounded GA proposed %d genomes in %d rounds, want %d in %d",
			r.proposed, r.rounds, want, cfg.Generations+1)
	}
}

func TestNSGA2Errors(t *testing.T) {
	if _, err := NewGA(nil, DefaultGAConfig()); err == nil {
		t.Fatal("expected validation error")
	}
	cfg := DefaultGAConfig()
	cfg.Population = 1
	if _, err := NewGA([]int{4, 4}, cfg); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestNSGA2Deterministic(t *testing.T) {
	a := drive(t, mustGA(t, []int{10, 10}, DefaultGAConfig()), biObjective(10), 60)
	b := drive(t, mustGA(t, []int{10, 10}, DefaultGAConfig()), biObjective(10), 60)
	if fmt.Sprint(a.evaluated) != fmt.Sprint(b.evaluated) {
		t.Fatal("same seed must evaluate the same points")
	}
}

func TestAnnealFindsGoodPoints(t *testing.T) {
	cfg := DefaultSAConfig()
	cfg.Steps = 30
	r := drive(t, mustSA(t, []int{16, 16}, cfg), biObjective(16), 120)
	if len(r.front()) == 0 {
		t.Fatal("empty front")
	}
	// the scalarized chains should push at least one point onto (or near)
	// the true front
	if best := r.bestSum(); best > 1.3 {
		t.Fatalf("best scalarized objective %.2f; annealer failed to descend", best)
	}
}

// TestAnnealBudgetRespected: at a budget the annealer stops wherever the
// budget runs out; unbounded it proposes one start plus Steps moves per
// chain.
func TestAnnealBudgetRespected(t *testing.T) {
	r := drive(t, mustSA(t, []int{32, 32}, DefaultSAConfig()), biObjective(32), 25)
	if len(r.evaluated) != 25 {
		t.Fatalf("evals = %d, budget 25", len(r.evaluated))
	}
	cfg := DefaultSAConfig()
	r = drive(t, mustSA(t, []int{32, 32}, cfg), biObjective(32), 1<<20)
	if want := cfg.Chains * (cfg.Steps + 1); r.proposed != want {
		t.Fatalf("unbounded SA proposed %d genomes, want %d", r.proposed, want)
	}
}

func TestAnnealErrors(t *testing.T) {
	if _, err := NewSA(nil, biRef, DefaultSAConfig()); err == nil {
		t.Fatal("expected validation error")
	}
	cfg := DefaultSAConfig()
	cfg.Chains = 0
	if _, err := NewSA([]int{4, 4}, biRef, cfg); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestFrontIsNonDominated(t *testing.T) {
	front := drive(t, mustGA(t, []int{12, 12}, DefaultGAConfig()), biObjective(12), 96).front()
	for _, a := range front {
		for _, b := range front {
			if pareto.Dominates(a.Objectives, b.Objectives) {
				t.Fatal("front contains a dominated individual")
			}
		}
	}
}

func TestReinforceOptimizerDescends(t *testing.T) {
	r := drive(t, mustRL(t, []int{16, 16}, DefaultRLConfig()), biObjective(16), 120)
	if len(r.front()) == 0 {
		t.Fatal("empty front")
	}
	if best := r.bestSum(); best > 1.5 {
		t.Fatalf("best scalarized objective %.2f; RL optimizer failed to descend", best)
	}
}

// TestReinforceBudgetRespected: cut at a budget the policy updates on a
// prefix of its batch; unbounded it proposes Updates batches.
func TestReinforceBudgetRespected(t *testing.T) {
	r := drive(t, mustRL(t, []int{32, 32}, DefaultRLConfig()), biObjective(32), 20)
	if len(r.evaluated) != 20 {
		t.Fatalf("evals = %d, budget 20", len(r.evaluated))
	}
	if r.lastCut == 0 {
		t.Fatal("the budget should cut the second batch")
	}
	cfg := DefaultRLConfig()
	r = drive(t, mustRL(t, []int{32, 32}, cfg), biObjective(32), 1<<20)
	if want := cfg.Updates * cfg.BatchSize; r.proposed != want {
		t.Fatalf("unbounded RL proposed %d genomes, want %d", r.proposed, want)
	}
}

func TestReinforceErrors(t *testing.T) {
	if _, err := NewRL(nil, biRef, DefaultRLConfig()); err == nil {
		t.Fatal("expected validation error")
	}
	cfg := DefaultRLConfig()
	cfg.BatchSize = 1
	if _, err := NewRL([]int{4, 4}, biRef, cfg); err == nil {
		t.Fatal("expected budget error")
	}
}

// TestProposersTolerateFailedDesigns: genomes told nil (failed or skipped
// designs) never enter a population, a chain or a reward, even when most or
// all designs fail — the optimizers keep proposing and finish.
func TestProposersTolerateFailedDesigns(t *testing.T) {
	ok := biObjective(12)
	mostlyFail := func(g space.Point) []float64 {
		if g[0]%4 != 0 {
			return nil
		}
		return ok(g)
	}
	allFail := func(space.Point) []float64 { return nil }
	dims := []int{12, 12}
	for _, f := range []func(space.Point) []float64{mostlyFail, allFail} {
		for name, opt := range map[string]proposer{
			"ga": mustGA(t, dims, DefaultGAConfig()),
			"sa": mustSA(t, dims, DefaultSAConfig()),
			"rl": mustRL(t, dims, DefaultRLConfig()),
		} {
			r := drive(t, opt, f, 96)
			for _, ind := range r.evaluated {
				if ind.Objectives == nil {
					t.Fatalf("%s scored a failed genome", name)
				}
			}
			if r.told == 0 {
				t.Fatalf("%s observed nothing", name)
			}
		}
	}
	if got := environmentalSelect([]Individual{{Genome: space.Point{0}, Objectives: []float64{1}}}, 4); len(got) != 1 {
		t.Fatalf("environmentalSelect kept %d of 1 individual", len(got))
	}
}
