package bayesopt

import (
	"fmt"
	"math"
	"testing"

	"autopilot/internal/pareto"
	"autopilot/internal/space"
	"autopilot/internal/tensor"
)

// problem is a discrete multi-objective test problem: candidate points,
// their features, and the objective function over a candidate index (nil
// marks a failed evaluation).
type problem struct {
	points []space.Point
	feats  [][]float64
	eval   func(i int) []float64
	ref    []float64
}

// zdt1Grid builds a discrete two-objective problem with a known Pareto front:
// x = (a, b) on a grid, f1 = a, f2 = b + (1-a)²; front at b = 0.
func zdt1Grid(n int) problem {
	var p problem
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.points = append(p.points, space.Point{i, j})
			p.feats = append(p.feats, []float64{float64(i) / float64(n-1), float64(j) / float64(n-1)})
		}
	}
	p.eval = func(i int) []float64 {
		a, b := p.feats[i][0], p.feats[i][1]
		return []float64{a, b + (1-a)*(1-a)}
	}
	p.ref = []float64{2, 3}
	return p
}

// line builds a one-feature problem over n evenly spaced candidates.
func line(n int, f func(x float64) []float64, ref ...float64) problem {
	p := problem{ref: ref}
	for i := 0; i < n; i++ {
		p.points = append(p.points, space.Point{i})
		p.feats = append(p.feats, []float64{float64(i) / float64(n-1)})
	}
	p.eval = func(i int) []float64 { return f(p.feats[i][0]) }
	return p
}

// evaluation is one scored candidate.
type evaluation struct {
	index      int
	objectives []float64
}

// drive runs the optimizer the way the dse search loop does, to a budget of
// designs that returned objectives: every proposal is scored in order and
// observed, and a failed candidate is used up without counting. It returns
// the scored candidates in order.
func drive(t *testing.T, p problem, cfg Config, budget int) ([]evaluation, error) {
	t.Helper()
	bo, err := New(p.points, p.feats, p.ref, cfg)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, pt := range p.points {
		index[fmt.Sprint(pt)] = i
	}
	var out []evaluation
	for len(out) < budget {
		pts, err := bo.Propose()
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			break
		}
		ys := make([][]float64, len(pts))
		for j, pt := range pts {
			i := index[fmt.Sprint(pt)]
			if ys[j] = p.eval(i); ys[j] != nil {
				out = append(out, evaluation{i, ys[j]})
			}
		}
		bo.Observe(ys)
	}
	return out, nil
}

// objectives returns the objective vectors of a run, in order.
func objectives(evs []evaluation) [][]float64 {
	out := make([][]float64, len(evs))
	for i, e := range evs {
		out[i] = e.objectives
	}
	return out
}

func TestOptimizeValidation(t *testing.T) {
	p := zdt1Grid(5)
	if _, err := New(nil, nil, p.ref, DefaultConfig()); err == nil {
		t.Error("expected error for empty candidate set")
	}
	if _, err := New(p.points, p.feats[1:], p.ref, DefaultConfig()); err == nil {
		t.Error("expected error for missing feature vectors")
	}
	if _, err := New(p.points, p.feats, nil, DefaultConfig()); err == nil {
		t.Error("expected error for empty reference point")
	}
	cfg := DefaultConfig()
	cfg.InitSamples = 0
	if _, err := New(p.points, p.feats, p.ref, cfg); err == nil {
		t.Error("expected error for zero init samples")
	}
}

func TestOptimizeEvaluatesEachCandidateOnce(t *testing.T) {
	p := zdt1Grid(6)
	calls := map[int]int{}
	inner := p.eval
	p.eval = func(i int) []float64 {
		calls[i]++
		return inner(i)
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 16
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 20 {
		t.Fatalf("evaluations = %d, want 20", len(evs))
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("candidate %d proposed %d times", i, c)
		}
	}
}

func TestOptimizeBudgetCappedBySpace(t *testing.T) {
	p := zdt1Grid(3) // 9 candidates
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 5, 50
	evs, err := drive(t, p, cfg, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 {
		t.Fatalf("evaluations = %d, want all 9", len(evs))
	}
}

// TestFailedCandidatesUsedUpNotModeled: a candidate told nil is never
// proposed again and adds nothing to the models, and a run whose initial
// samples all fail is rejected.
func TestFailedCandidatesUsedUpNotModeled(t *testing.T) {
	p := zdt1Grid(6)
	proposed := map[int]int{}
	inner := p.eval
	p.eval = func(i int) []float64 {
		proposed[i]++
		if i%3 == 0 {
			return nil
		}
		return inner(i)
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 16
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 20 {
		t.Fatalf("evaluations = %d, want 20 survivors", len(evs))
	}
	for i, c := range proposed {
		if c != 1 {
			t.Fatalf("candidate %d proposed %d times", i, c)
		}
	}

	p.eval = func(int) []float64 { return nil }
	if _, err := drive(t, p, cfg, 20); err == nil {
		t.Fatal("expected error when every initial sample fails")
	}
}

func TestFrontIsNonDominatedAndOnTrueFront(t *testing.T) {
	p := zdt1Grid(10)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, 40, 64
	cfg.Seed = 3
	evs, err := drive(t, p, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	frontIdx := pareto.NonDominated(objectives(evs))
	if len(frontIdx) == 0 {
		t.Fatal("empty front")
	}
	for _, i := range frontIdx {
		for _, j := range frontIdx {
			if i != j && pareto.Dominates(evs[i].objectives, evs[j].objectives) {
				t.Fatalf("front point %v dominates front point %v", evs[i].objectives, evs[j].objectives)
			}
		}
	}
	// with 50 evaluations on a 100-point grid, BO should discover at least
	// a few of the 10 true-front points (b = 0)
	trueFront := 0
	for _, i := range frontIdx {
		if p.feats[evs[i].index][1] == 0 {
			trueFront++
		}
	}
	if trueFront < 3 {
		t.Fatalf("only %d true-front points found", trueFront)
	}
}

func TestBOBeatsRandomSearchOnBudget(t *testing.T) {
	p := zdt1Grid(20) // 400 candidates
	budget := 40
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, budget-10, 128
	cfg.Seed = 7
	bo, err := drive(t, p, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	// random search draws `budget` distinct candidates; mean over a few
	// seeds to avoid flakiness
	var randHV float64
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		var objs [][]float64
		for _, i := range tensor.NewRNG(100 + s).Perm(len(p.points))[:budget] {
			objs = append(objs, p.eval(i))
		}
		randHV += pareto.Hypervolume(objs, p.ref)
	}
	randHV /= seeds
	boHV := pareto.Hypervolume(objectives(bo), p.ref)
	if boHV < randHV {
		t.Fatalf("BO hypervolume %.4f below mean random-search %.4f", boHV, randHV)
	}
}

func TestOptimizeDeterministicForSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 6, 10, 32
	a, err := drive(t, zdt1Grid(8), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := drive(t, zdt1Grid(8), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].index != b[i].index {
			t.Fatalf("evaluation %d differs: %d vs %d", i, a[i].index, b[i].index)
		}
	}
}

func TestAcquisitionPrefersNonDominatedRegion(t *testing.T) {
	// a constant-objective problem must not crash the GP (zero variance path)
	p := line(3, func(float64) []float64 { return []float64{1, 1} }, 2, 2)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 2, 1
	if _, err := drive(t, p, cfg, 3); err != nil {
		t.Fatalf("constant objectives: %v", err)
	}
}

func TestOptimizeSingleObjectiveFindsMinimum(t *testing.T) {
	// 1-objective degenerate case: BO should find the global minimum of a
	// smooth function on a line.
	p := line(50, func(x float64) []float64 { return []float64{(x - 0.37) * (x - 0.37)} }, 2)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 5, 15, 50
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, e := range evs {
		best = math.Min(best, e.objectives[0])
	}
	if best > 0.01 {
		t.Fatalf("best objective %.4f, want near 0 (20 evals on 50 points)", best)
	}
}

func TestAcquisitionStrings(t *testing.T) {
	if AcqSMSEGO.String() != "sms-ego" || AcqScalarizedEI.String() != "scalarized-ei" {
		t.Fatal("bad acquisition names")
	}
}

func TestScalarizedEIOptimizes(t *testing.T) {
	p := zdt1Grid(12)
	cfg := DefaultConfig()
	cfg.Acquisition = AcqScalarizedEI
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 24, 64
	evs, err := drive(t, p, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(pareto.NonDominated(objectives(evs))) == 0 {
		t.Fatal("empty front from EI")
	}
	if hv := pareto.Hypervolume(objectives(evs), p.ref); hv <= 0 {
		t.Fatalf("EI hypervolume %g", hv)
	}
}

func TestStdNormalHelpers(t *testing.T) {
	if math.Abs(stdNormalCDF(0)-0.5) > 1e-12 {
		t.Fatalf("Phi(0) = %g", stdNormalCDF(0))
	}
	if stdNormalCDF(5) < 0.999 || stdNormalCDF(-5) > 0.001 {
		t.Fatal("CDF tails wrong")
	}
	if math.Abs(stdNormalPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Fatalf("phi(0) = %g", stdNormalPDF(0))
	}
}

// TestProposeAllocationsIndependentOfScreen pins that scoring a screened
// candidate allocates nothing: a model-guided Propose makes as many
// allocations when it screens 1024 candidates as when it screens 64, for
// both acquisitions, on a three-objective problem.
func TestProposeAllocationsIndependentOfScreen(t *testing.T) {
	p := zdt1Grid(64) // 4096 candidates
	p.ref = []float64{2, 3, 3}
	two := p.eval
	p.eval = func(i int) []float64 {
		f := two(i)
		return append(f, (1-f[0])*(1-f[0])+f[1]*f[1])
	}
	for _, acq := range []Acquisition{AcqSMSEGO, AcqScalarizedEI} {
		allocs := map[int]float64{}
		for _, screen := range []int{64, 1024} {
			cfg := DefaultConfig()
			cfg.InitSamples, cfg.ScreenSize, cfg.Acquisition = 24, screen, acq
			bo, err := New(p.points, p.feats, p.ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := bo.Propose()
			if err != nil {
				t.Fatal(err)
			}
			ys := make([][]float64, len(pts))
			for j, pt := range pts {
				ys[j] = p.eval(pt[0]*64 + pt[1])
			}
			bo.Observe(ys)
			allocs[screen] = testing.AllocsPerRun(5, func() {
				if _, err := bo.Propose(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[64] != allocs[1024] {
			t.Errorf("%v: %v allocations per Propose screening 64 candidates, %v screening 1024", acq, allocs[64], allocs[1024])
		}
	}
}
