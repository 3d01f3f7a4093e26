package f1

import (
	"math"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/thermal"
	"autopilot/internal/uav"
)

func denseModel(t *testing.T) Model {
	t.Helper()
	m := ForScenario(airlearning.DenseObstacle)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForScenarioSpacingOrdering(t *testing.T) {
	low := ForScenario(airlearning.LowObstacle)
	med := ForScenario(airlearning.MediumObstacle)
	dense := ForScenario(airlearning.DenseObstacle)
	if !(dense.DecisionSpacingM < med.DecisionSpacingM && med.DecisionSpacingM < low.DecisionSpacingM) {
		t.Fatalf("spacing must shrink with clutter: %g %g %g",
			low.DecisionSpacingM, med.DecisionSpacingM, dense.DecisionSpacingM)
	}
}

func TestValidate(t *testing.T) {
	if err := (Model{}).Validate(); err == nil {
		t.Fatal("zero model must be invalid")
	}
	if err := (Model{SenseRangeM: 1, DecisionSpacingM: 0.1, MinCreepMS: -1}).Validate(); err == nil {
		t.Fatal("negative creep must be invalid")
	}
}

func TestPhysicsVelocityProperties(t *testing.T) {
	m := denseModel(t)
	// monotone in throughput, approaching the ceiling
	prev := 0.0
	for _, f := range []float64{1, 5, 20, 100, 1000} {
		v := m.PhysicsVelocity(f, 10)
		if v <= prev {
			t.Fatalf("physics velocity not increasing at %g Hz", f)
		}
		prev = v
	}
	ceil := m.CeilingVelocity(10)
	if prev > ceil {
		t.Fatalf("velocity %g exceeded ceiling %g", prev, ceil)
	}
	if v := m.PhysicsVelocity(1e7, 10); math.Abs(v-ceil) > 0.01*ceil {
		t.Fatalf("high-throughput velocity %g should approach ceiling %g", v, ceil)
	}
}

func TestPhysicsVelocitySatisfiesStoppingConstraint(t *testing.T) {
	m := denseModel(t)
	for _, f := range []float64{5, 20, 46, 200} {
		for _, a := range []float64{3, 10, 30} {
			v := m.PhysicsVelocity(f, a)
			slack := v/f + v*v/(2*a) - m.SenseRangeM
			if slack > 1e-9 {
				t.Fatalf("f=%g a=%g: constraint violated by %g", f, a, slack)
			}
			if slack < -1e-6 {
				t.Fatalf("f=%g a=%g: velocity not maximal (slack %g)", f, a, slack)
			}
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	m := denseModel(t)
	if m.PhysicsVelocity(0, 10) != 0 || m.PhysicsVelocity(10, 0) != 0 {
		t.Fatal("degenerate physics velocity must be zero")
	}
	if m.SafeVelocity(0, 10) != 0 || m.SafeVelocity(10, 0) != 0 {
		t.Fatal("degenerate safe velocity must be zero")
	}
	if m.CeilingVelocity(0) != 0 {
		t.Fatal("degenerate ceiling must be zero")
	}
	if m.KneePoint(0) != 0 {
		t.Fatal("degenerate knee must be zero")
	}
}

func TestSafeVelocityDiagonalThenCeiling(t *testing.T) {
	m := denseModel(t)
	a := 29.5 // nano with AP payload
	// far below the knee: diagonal binds
	low := m.SafeVelocity(10, a)
	wantLow := m.MinCreepMS + 10*m.DecisionSpacingM
	if math.Abs(low-wantLow) > 1e-9 {
		t.Fatalf("below knee: v = %g, want diagonal %g", low, wantLow)
	}
	// far above the knee: physics binds
	high := m.SafeVelocity(500, a)
	if math.Abs(high-m.PhysicsVelocity(500, a)) > 1e-9 {
		t.Fatal("above knee: physics must bind")
	}
	if high <= low {
		t.Fatal("velocity must grow from diagonal to ceiling")
	}
}

func nanoAccel() float64 {
	return uav.ZhangNano().MaxAccelMS2(thermal.Default().ComputeWeightGrams(0.7))
}

func sparkAccel() float64 {
	return uav.DJISpark().MaxAccelMS2(thermal.Default().ComputeWeightGrams(0.7))
}

func TestNanoKneeMatchesPaper46Hz(t *testing.T) {
	// paper Fig. 10b / §V-C: the nano knee point is ~46 Hz
	knee := denseModel(t).KneePoint(nanoAccel())
	if knee < 41 || knee > 51 {
		t.Fatalf("nano knee = %.1f Hz, want ~46", knee)
	}
}

func TestSparkKneeMatchesPaper27Hz(t *testing.T) {
	// paper §V-C / Fig. 11: the DJI Spark knee point is ~27 Hz
	knee := denseModel(t).KneePoint(sparkAccel())
	if knee < 23 || knee > 31 {
		t.Fatalf("Spark knee = %.1f Hz, want ~27", knee)
	}
}

func TestAgilityRaisesKnee(t *testing.T) {
	// paper Fig. 11: more agile UAVs need ~2× the compute throughput
	m := denseModel(t)
	nano, spark := m.KneePoint(nanoAccel()), m.KneePoint(sparkAccel())
	if nano <= spark {
		t.Fatalf("nano knee %.1f must exceed Spark knee %.1f", nano, spark)
	}
	if r := nano / spark; r < 1.4 || r > 2.4 {
		t.Fatalf("knee ratio %.2f, paper reports ~1.7 (46/27)", r)
	}
}

func TestPayloadWeightLowersCeiling(t *testing.T) {
	// paper Fig. 4a: heavier compute lowers the roofline
	m := denseModel(t)
	nano := uav.ZhangNano()
	light := m.CeilingVelocity(nano.MaxAccelMS2(24))
	heavy := m.CeilingVelocity(nano.MaxAccelMS2(65))
	if heavy >= light {
		t.Fatal("heavier payload must lower the velocity ceiling")
	}
}

func TestKneeVelocityNearCeiling(t *testing.T) {
	m := denseModel(t)
	a := nanoAccel()
	knee := m.KneePoint(a)
	if v := m.SafeVelocity(knee, a); v < 0.9*m.CeilingVelocity(a) {
		t.Fatalf("velocity at knee %.2f below 90%% of ceiling %.2f", v, m.CeilingVelocity(a))
	}
}

func TestClassify(t *testing.T) {
	m := denseModel(t)
	a := nanoAccel()
	knee := m.KneePoint(a)
	if got := m.Classify(0.4*knee, a); got != UnderProvisioned {
		t.Errorf("0.4·knee = %v", got)
	}
	if got := m.Classify(knee, a); got != Balanced {
		t.Errorf("knee = %v", got)
	}
	if got := m.Classify(3*knee, a); got != OverProvisioned {
		t.Errorf("3·knee = %v", got)
	}
}

func TestProvisioningAndBoundStrings(t *testing.T) {
	for _, p := range []Provisioning{UnderProvisioned, Balanced, OverProvisioned} {
		if p.String() == "" {
			t.Errorf("empty name for %d", int(p))
		}
	}
	for _, b := range []Bound{ComputeBound, SensorBound, PhysicsBound} {
		if b.String() == "" {
			t.Errorf("empty name for %d", int(b))
		}
	}
}

func TestEffectiveThroughput(t *testing.T) {
	m := denseModel(t)
	a := nanoAccel() // knee ≈ 46
	// LP-style design: compute is the limiter
	f, bound := m.EffectiveThroughput(18.4, 60, a)
	if f != 18.4 || bound != ComputeBound {
		t.Fatalf("LP: f=%g bound=%v", f, bound)
	}
	// 30 FPS sensor with fast compute: sensor binds
	f, bound = m.EffectiveThroughput(100, 30, a)
	if f != 30 || bound != SensorBound {
		t.Fatalf("sensor case: f=%g bound=%v", f, bound)
	}
	// both fast: physics binds
	f, bound = m.EffectiveThroughput(205, 60, a)
	if f != 60 || bound != PhysicsBound {
		t.Fatalf("HT case: f=%g bound=%v", f, bound)
	}
}

func TestCurveSamplesMonotoneThroughput(t *testing.T) {
	m := denseModel(t)
	pts := m.Curve(nanoAccel(), 100, 50)
	if len(pts) != 50 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ThroughputHz <= pts[i-1].ThroughputHz {
			t.Fatal("throughput samples must increase")
		}
		if pts[i].VSafeMS < pts[i-1].VSafeMS-1e-9 {
			t.Fatal("v_safe must be non-decreasing in throughput")
		}
	}
	if got := m.Curve(10, 50, 1); len(got) != 2 {
		t.Fatalf("minimum curve length = %d, want 2", len(got))
	}
}

func TestKneeDegenerateDenseClutter(t *testing.T) {
	// spacing so tiny the diagonal never dips below physics: the knee
	// falls back to ~99% of ceiling throughput and must stay positive
	m := Model{SenseRangeM: 2.5, DecisionSpacingM: 1e-9, MinCreepMS: 10}
	knee := m.KneePoint(10)
	if knee <= 0 {
		t.Fatalf("degenerate knee = %g", knee)
	}
}
