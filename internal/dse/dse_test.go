package dse

import (
	"context"
	"fmt"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/systolic"
)

// run executes Phase 2 through Execute with a background context — the
// positional shorthand the tests share.
func run(space Space, db *airlearning.Database, scen airlearning.Scenario, pm power.Model, cfg Config) (*Result, error) {
	return Execute(context.Background(), Request{
		Space: space, DB: db, Scenario: scen, Power: pm, Config: cfg,
	})
}

// runWith is run with an explicit optimizer.
func runWith(opt Optimizer, space Space, db *airlearning.Database, scen airlearning.Scenario, pm power.Model, cfg Config) (*Result, error) {
	return Execute(context.Background(), Request{
		Space: space, DB: db, Scenario: scen, Power: pm, Config: cfg, Optimizer: opt,
	})
}

func surrogateDB() *airlearning.Database {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	return db
}

func smallConfig() Config {
	bo := bayesopt.DefaultConfig()
	bo.InitSamples, bo.Iterations, bo.ScreenSize = 12, 20, 128
	return Config{CandidatePool: 256, BO: bo, Seed: 1, ProbeCorners: true}
}

func TestDefaultSpaceMatchesTableII(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Layers) != 9 || len(s.Filters) != 3 {
		t.Errorf("model dims: %d layers, %d filters", len(s.Layers), len(s.Filters))
	}
	if len(s.PERows) != 8 || len(s.PECols) != 8 || len(s.SRAMKB) != 8 {
		t.Errorf("hw dims: %d rows, %d cols, %d sram", len(s.PERows), len(s.PECols), len(s.SRAMKB))
	}
	if s.PERows[0] != 8 || s.PERows[7] != 1024 {
		t.Errorf("PE rows = %v", s.PERows)
	}
	if s.SRAMKB[0] != 32 || s.SRAMKB[7] != 4096 {
		t.Errorf("SRAM = %v", s.SRAMKB)
	}
	// 27 models × 64 arrays × 512 SRAM combos = 884736
	if s.Size() != 884736 {
		t.Errorf("Size = %d, want 884736", s.Size())
	}
}

func TestValidateRejectsEmptySpace(t *testing.T) {
	s := DefaultSpace()
	s.Layers = nil
	if err := s.Validate(); err == nil {
		t.Fatal("expected error")
	}
	s = DefaultSpace()
	s.FreqMHz = 0
	if err := s.Validate(); err == nil {
		t.Fatal("expected error")
	}
}

func TestBandwidthScalesWithArrayAndSaturates(t *testing.T) {
	if Bandwidth(64) >= Bandwidth(16384) {
		t.Fatal("bandwidth must grow with PEs")
	}
	if Bandwidth(1024*1024) != 12.0 {
		t.Fatalf("bandwidth must cap at 12 GB/s, got %g", Bandwidth(1024*1024))
	}
	if Bandwidth(64) < 0.8 {
		t.Fatal("bandwidth must have the LPDDR floor")
	}
}

func TestSampleDistinctAndValid(t *testing.T) {
	s := DefaultSpace()
	pts := s.Sample(100, 7)
	if len(pts) != 100 {
		t.Fatalf("len = %d", len(pts))
	}
	seen := map[string]bool{}
	for _, d := range pts {
		if err := d.Hyper.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if err := d.HW.Validate(); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if seen[d.String()] {
			t.Fatalf("duplicate sample %v", d)
		}
		seen[d.String()] = true
	}
}

func TestSampleIncludesCornerDesigns(t *testing.T) {
	s := DefaultSpace()
	pts := s.Sample(10, 1)
	if pts[0].HW.PEs() != 64 || pts[0].HW.IfmapKB != 32 {
		t.Fatalf("first sample must be the small corner, got %v", pts[0])
	}
	if pts[1].HW.PEs() != 1024*1024 || pts[1].HW.FilterKB != 4096 {
		t.Fatalf("second sample must be the large corner, got %v", pts[1])
	}
}

// TestProbeSweepHasNoRepeats: with one or two scratchpad choices the first,
// middle and last sizes coincide, yet the probe sweep holds each design once,
// and so do Execute's evaluated set and its frontier.
func TestProbeSweepHasNoRepeats(t *testing.T) {
	for _, srams := range [][]int{{64}, {32, 4096}} {
		s := DefaultSpace()
		s.SRAMKB = srams
		probes := s.ProbeDesigns(policy.Hyper{Layers: 7, Filters: 48})
		if want := len(s.PERows) * len(srams); len(probes) != want {
			t.Errorf("sram %v: %d probe designs, want %d", srams, len(probes), want)
		}
		assertDistinct(t, fmt.Sprintf("sram %v probes", srams), probes)
		res, err := run(s, surrogateDB(), airlearning.DenseObstacle, power.Default(), smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		var evaluated, front []DesignPoint
		for _, e := range res.Evaluated {
			evaluated = append(evaluated, e.Design)
		}
		for _, e := range res.Pareto() {
			front = append(front, e.Design)
		}
		assertDistinct(t, fmt.Sprintf("sram %v evaluated", srams), evaluated)
		assertDistinct(t, fmt.Sprintf("sram %v frontier", srams), front)
	}
}

func assertDistinct(t *testing.T, what string, ds []DesignPoint) {
	t.Helper()
	seen := map[DesignPoint]bool{}
	for _, d := range ds {
		if seen[d] {
			t.Errorf("%s: %s appears twice", what, d)
		}
		seen[d] = true
	}
}

func TestFeaturesNormalized(t *testing.T) {
	s := DefaultSpace()
	for _, d := range s.Sample(200, 3) {
		f := s.Features(d)
		if len(f) != 7 {
			t.Fatalf("feature dim = %d", len(f))
		}
		for j, v := range f {
			if v < 0 || v > 1 {
				t.Fatalf("feature %d = %g outside [0,1] for %v", j, v, d)
			}
		}
	}
}

func TestEvaluatorScoresDesign(t *testing.T) {
	s := DefaultSpace()
	ev := NewEvaluator(surrogateDB(), airlearning.DenseObstacle, power.Default(), WithTemplate(s.Template))
	d := s.Sample(5, 1)[3]
	e, err := ev.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if e.SuccessRate <= 0 || e.SuccessRate > 1 {
		t.Fatalf("success = %g", e.SuccessRate)
	}
	if e.FPS <= 0 || e.SoCPowerW <= power.FixedComponentsW {
		t.Fatalf("FPS = %g, power = %g", e.FPS, e.SoCPowerW)
	}
	obj := e.Objectives()
	if len(obj) != 3 || obj[0] != -e.SuccessRate || obj[1] != e.SoCPowerW || obj[2] != e.RuntimeSec {
		t.Fatalf("objectives = %v", obj)
	}
	if e.EfficiencyFPSW() <= 0 {
		t.Fatal("efficiency must be positive")
	}
}

func TestEvaluatorMissingDBEntryZeroSuccess(t *testing.T) {
	s := DefaultSpace()
	ev := NewEvaluator(airlearning.NewDatabase(), airlearning.DenseObstacle, power.Default(), WithTemplate(s.Template))
	e, err := ev.Evaluate(s.Sample(3, 1)[2])
	if err != nil {
		t.Fatal(err)
	}
	if e.SuccessRate != 0 {
		t.Fatalf("success = %g, want 0 for missing record", e.SuccessRate)
	}
}

func TestRunProducesFrontAndLabels(t *testing.T) {
	res, err := run(DefaultSpace(), surrogateDB(), airlearning.DenseObstacle, power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) < 32 {
		t.Fatalf("evaluated = %d, want >= 32 (BO budget plus probe corners)", len(res.Evaluated))
	}
	if len(res.ParetoIdx) == 0 {
		t.Fatal("empty Pareto front")
	}
	if res.HT < 0 || res.LP < 0 || res.HE < 0 {
		t.Fatal("conventional labels missing")
	}
	ht, lp, he := res.Evaluated[res.HT], res.Evaluated[res.LP], res.Evaluated[res.HE]
	// HT must be the fastest top-success design, LP the lowest power
	for _, i := range res.TopSuccess(0.02) {
		e := res.Evaluated[i]
		if e.FPS > ht.FPS {
			t.Fatalf("HT not fastest: %g > %g", e.FPS, ht.FPS)
		}
		if e.SoCPowerW < lp.SoCPowerW {
			t.Fatalf("LP not lowest power")
		}
		if e.EfficiencyFPSW() > he.EfficiencyFPSW() {
			t.Fatalf("HE not most efficient")
		}
	}
	if ht.SoCPowerW <= lp.SoCPowerW {
		t.Fatal("HT should burn more than LP")
	}
}

func TestRunParetoFrontConsistent(t *testing.T) {
	res, err := run(DefaultSpace(), surrogateDB(), airlearning.MediumObstacle, power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	front := res.Pareto()
	if len(front) != len(res.ParetoIdx) {
		t.Fatal("Pareto() length mismatch")
	}
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			// no front member may dominate another
			ao, bo := a.Objectives(), b.Objectives()
			dom, strict := true, false
			for k := range ao {
				if ao[k] > bo[k] {
					dom = false
				}
				if ao[k] < bo[k] {
					strict = true
				}
			}
			if dom && strict {
				t.Fatalf("front member dominates another")
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	s := DefaultSpace()
	s.PERows = nil
	if _, err := run(s, surrogateDB(), airlearning.LowObstacle, power.Default(), smallConfig()); err == nil {
		t.Fatal("expected error for bad space")
	}
	cfg := smallConfig()
	cfg.CandidatePool = 1
	if _, err := run(DefaultSpace(), surrogateDB(), airlearning.LowObstacle, power.Default(), cfg); err == nil {
		t.Fatal("expected error for tiny pool")
	}
}

func TestTopSuccessFilter(t *testing.T) {
	r := &Result{Evaluated: []Evaluated{
		{SuccessRate: 0.78},
		{SuccessRate: 0.77},
		{SuccessRate: 0.50},
	}}
	top := r.TopSuccess(0.02)
	if len(top) != 2 || top[0] != 0 || top[1] != 1 {
		t.Fatalf("TopSuccess = %v", top)
	}
	if got := (&Result{}).TopSuccess(0.02); got != nil {
		t.Fatalf("empty result TopSuccess = %v", got)
	}
}

func TestDesignPointString(t *testing.T) {
	s := DefaultSpace()
	if s.Sample(1, 1)[0].String() == "" {
		t.Fatal("empty String")
	}
}

func TestObjectivesRefBoundsHoldOnSamples(t *testing.T) {
	// the BO reference point in Run assumes power < 20 W and runtime < 1 s
	// across the space; spot-check a sample
	s := DefaultSpace()
	ev := NewEvaluator(surrogateDB(), airlearning.DenseObstacle, power.Default(), WithTemplate(s.Template))
	for _, d := range s.Sample(40, 9) {
		e, err := ev.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if e.SoCPowerW >= 30 {
			t.Fatalf("power %g exceeds BO reference 30 for %v", e.SoCPowerW, d)
		}
		if e.RuntimeSec >= 1 {
			t.Fatalf("runtime %g exceeds BO reference 1 for %v", e.RuntimeSec, d)
		}
	}
}

var _ = systolic.Config{} // keep import for doc reference in tests
