package dse

import (
	"context"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/power"
	"autopilot/internal/space"
)

func TestOptimizerStrings(t *testing.T) {
	for _, o := range []Optimizer{OptBayesian, OptGenetic, OptAnnealing, OptReinforce, OptRandom} {
		if o.String() == "" {
			t.Errorf("empty name for %d", int(o))
		}
	}
}

// TestChoiceDimsMatchSpace pins the choice-vector layout the evolutionary
// optimizers search: the parameter space's axis cardinalities in axis order.
func TestChoiceDimsMatchSpace(t *testing.T) {
	s := DefaultSpace()
	dims := s.ParamSpace().Dims()
	want := []int{9, 3, 8, 8, 8, 8, 8}
	if len(dims) != len(want) {
		t.Fatalf("dims = %v", dims)
	}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dims[%d] = %d, want %d", i, dims[i], want[i])
		}
	}
}

// TestFromChoicesRoundTrip: a choice vector (a space.Point) materializes the
// design its indices select.
func TestFromChoicesRoundTrip(t *testing.T) {
	s := DefaultSpace()
	d, err := s.FromPoint(space.Point{5, 1, 3, 4, 0, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Hyper.Layers != s.Layers[5] || d.Hyper.Filters != s.Filters[1] {
		t.Fatalf("model = %v", d.Hyper)
	}
	if d.HW.Rows != s.PERows[3] || d.HW.Cols != s.PECols[4] {
		t.Fatalf("array = %dx%d", d.HW.Rows, d.HW.Cols)
	}
	if d.HW.IfmapKB != s.SRAMKB[0] || d.HW.FilterKB != s.SRAMKB[7] || d.HW.OfmapKB != s.SRAMKB[2] {
		t.Fatalf("sram = %d/%d/%d", d.HW.IfmapKB, d.HW.FilterKB, d.HW.OfmapKB)
	}
	if err := d.HW.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromChoicesErrors(t *testing.T) {
	s := DefaultSpace()
	if _, err := s.FromPoint(space.Point{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := s.FromPoint(space.Point{99, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := s.FromPoint(space.Point{-1, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestRunWithAllOptimizers(t *testing.T) {
	db := surrogateDB()
	space := DefaultSpace()
	cfg := smallConfig()
	for _, opt := range []Optimizer{OptBayesian, OptGenetic, OptAnnealing, OptReinforce, OptRandom} {
		res, err := runWith(opt, space, db, airlearning.DenseObstacle, power.Default(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		if len(res.Evaluated) == 0 || len(res.ParetoIdx) == 0 {
			t.Fatalf("%v: degenerate result (%d evaluated, %d front)",
				opt, len(res.Evaluated), len(res.ParetoIdx))
		}
		if res.HT < 0 || res.LP < 0 || res.HE < 0 {
			t.Fatalf("%v: missing conventional labels", opt)
		}
		// every optimizer should still surface the probe-seeded HT corner
		if res.Evaluated[res.HT].FPS < 100 {
			t.Errorf("%v: HT is only %.1f FPS; probe seeding missing?", opt, res.Evaluated[res.HT].FPS)
		}
	}
}

func TestRunWithUnknownOptimizer(t *testing.T) {
	if _, err := runWith(Optimizer(42), DefaultSpace(), surrogateDB(), airlearning.LowObstacle, power.Default(), smallConfig()); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunWithBayesianEquivalentToRun(t *testing.T) {
	db := surrogateDB()
	cfg := smallConfig()
	a, err := runWith(OptBayesian, DefaultSpace(), db, airlearning.MediumObstacle, power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(DefaultSpace(), db, airlearning.MediumObstacle, power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Evaluated) != len(b.Evaluated) {
		t.Fatal("runWith(OptBayesian) must match Run")
	}
}

func TestEnumerateSmallSpace(t *testing.T) {
	s := DefaultSpace()
	s.Layers = []int{7}
	s.Filters = []int{48}
	s.PERows = []int{8, 64}
	s.PECols = []int{8, 64}
	s.SRAMKB = []int{32, 512}
	pts, err := Enumerate(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pts)) != s.Size() {
		t.Fatalf("enumerated %d, want %d", len(pts), s.Size())
	}
	seen := map[string]bool{}
	for _, d := range pts {
		if seen[d.String()] {
			t.Fatalf("duplicate %v", d)
		}
		seen[d.String()] = true
		if err := d.HW.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// Enumerate is a test helper wrapping the method for readability.
func Enumerate(t *testing.T, s Space) ([]DesignPoint, error) {
	t.Helper()
	return s.Enumerate(0)
}

func TestEnumerateRefusesHugeSpace(t *testing.T) {
	if _, err := DefaultSpace().Enumerate(0); err == nil {
		t.Fatal("expected refusal for the 884736-point space")
	}
}

func TestExhaustiveConfirmsBOFindings(t *testing.T) {
	// on a pinned-model space small enough to enumerate, the exhaustive
	// sweep's best-FPS design must match the probe-seeded HT within the
	// discrete grid, validating the BO shortcut
	s := DefaultSpace()
	s.Layers, s.Filters = []int{7}, []int{48}
	s.PERows, s.PECols = []int{8, 128, 512}, []int{8, 128, 512}
	s.SRAMKB = []int{32, 512}
	pts, err := s.Enumerate(0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(surrogateDB(), airlearning.DenseObstacle, power.Default(), WithTemplate(s.Template))
	bestFPS := 0.0
	for _, d := range pts {
		e, err := ev.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if e.FPS > bestFPS {
			bestFPS = e.FPS
		}
	}
	res, err := run(s, surrogateDB(), airlearning.DenseObstacle, power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	htFPS := res.Evaluated[res.HT].FPS
	if htFPS < 0.95*bestFPS {
		t.Fatalf("BO+probe HT %.1f FPS well below exhaustive best %.1f", htFPS, bestFPS)
	}
}

// TestRandomSearchBudgetCap: random search on a space smaller than its
// budget scores every design of the space exactly once.
func TestRandomSearchBudgetCap(t *testing.T) {
	s := DefaultSpace()
	s.Layers, s.Filters = []int{7}, []int{48}
	s.PERows, s.PECols, s.SRAMKB = []int{8, 64}, []int{8, 64}, []int{32, 512}
	cfg := smallConfig()
	cfg.ProbeCorners = false
	cfg.BO.Iterations = 100 // budget 112 over a 32-design space
	res, err := Execute(context.Background(), Request{
		Space: s, DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
		Power: power.Default(), Config: cfg, Optimizer: OptRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Evaluated)) != s.Size() || res.CacheMisses != s.Size() {
		t.Fatalf("%d evaluated, %d simulated; want all %d designs once", len(res.Evaluated), res.CacheMisses, s.Size())
	}
}
