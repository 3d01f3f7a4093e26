package mission

import (
	"math"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/catalog"
	"autopilot/internal/f1"
)

// denseF1 is the F-1 model the mission tests fly under.
var denseF1 = f1.ForScenario(airlearning.DenseObstacle)

// defaultLoadout is a Table IV airframe with its default battery and sensor.
func defaultLoadout(t *testing.T, airframe string) catalog.Loadout {
	t.Helper()
	lo, err := catalog.DefaultLoadout(airframe)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// fly evaluates a compute payload on a loadout with a 60 FPS sensor under
// the default rotor model, failing the test on any error.
func fly(t *testing.T, lo catalog.Loadout, spec Spec, payloadG, computeFPS, computeW float64) Flight {
	t.Helper()
	fl, err := EvaluateLoadout(lo, DefaultParams(), spec, denseF1, payloadG, computeFPS, computeW, 60)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestRotorPowerMomentumTheory(t *testing.T) {
	p := DefaultParams()
	// doubling mass raises hover power by 2^1.5
	a := p.RotorHoverPowerW(0.1, 0.01)
	b := p.RotorHoverPowerW(0.2, 0.01)
	if math.Abs(b/a-math.Pow(2, 1.5)) > 1e-9 {
		t.Fatalf("power ratio = %g, want 2^1.5", b/a)
	}
	// doubling disc area cuts power by sqrt(2)
	c := p.RotorHoverPowerW(0.1, 0.02)
	if math.Abs(a/c-math.Sqrt2) > 1e-9 {
		t.Fatalf("area scaling ratio = %g, want sqrt(2)", a/c)
	}
}

func TestRotorPowerDegenerateInputs(t *testing.T) {
	p := DefaultParams()
	if p.RotorHoverPowerW(0, 0.01) != 0 || p.RotorHoverPowerW(0.1, 0) != 0 {
		t.Fatal("degenerate inputs must give zero power")
	}
}

func TestFlightTimesMatchRealDrones(t *testing.T) {
	// sanity anchors: Spark ~16 min, Pelican ~20 min, Crazyflie-class nano
	// ~7-12 min with a small payload
	cases := []struct {
		plat   catalog.Loadout
		lo, hi float64
	}{
		{defaultLoadout(t, "nano"), 6, 14},
		{defaultLoadout(t, "spark"), 12, 24},
		{defaultLoadout(t, "pelican"), 15, 28},
	}
	for _, c := range cases {
		prof := fly(t, c.plat, DefaultSpec(), 24, 46, 0.7).Profile
		min := c.plat.Battery.EnergyJ() / prof.TotalW / 60 // hover endurance
		if min < c.lo || min > c.hi {
			t.Errorf("%s: flight time %.1f min outside [%g, %g]", c.plat, min, c.lo, c.hi)
		}
	}
}

// TestEvaluateLoadoutFollowsF1 pins the chain to the F-1 model's own
// arithmetic: the knee at the loaded acceleration, the effective throughput
// and provisioning against that knee, and the safe velocity the profile is
// scored at, bit for bit.
func TestEvaluateLoadoutFollowsF1(t *testing.T) {
	nano := defaultLoadout(t, "nano")
	for _, c := range []struct{ payloadG, fps, sensorFPS float64 }{
		{24, 18.4, 60}, {24, 100, 30}, {30, 205, 60}, {65, 46, 90},
	} {
		fl, err := EvaluateLoadout(nano, DefaultParams(), DefaultSpec(), denseF1, c.payloadG, c.fps, 0.7, c.sensorFPS)
		if err != nil {
			t.Fatal(err)
		}
		accel := nano.MaxAccelMS2(c.payloadG)
		knee := denseF1.KneePoint(accel)
		action, bound := f1.EffectiveThroughput(c.fps, c.sensorFPS, knee)
		want := Flight{
			KneeHz: knee, ActionHz: action, Bound: bound,
			Provisioning: f1.Classify(action, knee),
			VSafeMS:      denseF1.SafeVelocity(action, accel),
		}
		want.Profile = fl.Profile
		if fl != want {
			t.Errorf("%+v: flight %+v, want %+v", c, fl, want)
		}
		if fl.Profile.VSafeMS != fl.VSafeMS {
			t.Errorf("%+v: profile scored at %g m/s, not the safe velocity %g", c, fl.Profile.VSafeMS, fl.VSafeMS)
		}
	}
}

func TestEvaluateEquationConsistency(t *testing.T) {
	nano := defaultLoadout(t, "nano")
	prof := fly(t, nano, Spec{DistanceM: 500}, 24, 46, 0.7).Profile
	// Eq. 2/3: E = P·t with t = D/v
	if math.Abs(prof.MissionTime-500/prof.VSafeMS) > 1e-9 {
		t.Fatalf("mission time = %g, want D/v = %g s", prof.MissionTime, 500/prof.VSafeMS)
	}
	if math.Abs(prof.MissionJ-prof.TotalW*prof.MissionTime) > 1e-9 {
		t.Fatal("E != P·t")
	}
	// Eq. 1/4: N = E_batt / E_mission
	if math.Abs(prof.Missions-nano.Battery.EnergyJ()/prof.MissionJ) > 1e-9 {
		t.Fatal("N != E_batt / E_mission")
	}
	if math.Abs(prof.TotalW-(prof.RotorPowerW+prof.ComputeW+prof.OthersW)) > 1e-9 {
		t.Fatal("total power must sum components")
	}
}

func TestEvaluateErrors(t *testing.T) {
	p := DefaultParams()
	nano := defaultLoadout(t, "nano")
	if _, err := EvaluateLoadout(nano, p, Spec{}, denseF1, 24, 46, 0.7, 60); err == nil {
		t.Error("expected error for zero distance")
	}
	fl, err := EvaluateLoadout(nano, p, DefaultSpec(), denseF1, 24, 0, 0.7, 60)
	if err == nil {
		t.Error("expected error for zero velocity")
	}
	if fl.KneeHz <= 0 {
		t.Error("a zero-velocity flight must keep its F-1 knee")
	}
	if _, err := EvaluateLoadout(nano, p, DefaultSpec(), denseF1, 5000, 46, 0.7, 60); err == nil {
		t.Error("expected error for unliftable payload")
	}
}

func TestFasterIsMoreMissionsAtSamePower(t *testing.T) {
	nano := defaultLoadout(t, "nano")
	slow := fly(t, nano, DefaultSpec(), 24, 10, 0.7)
	fast := fly(t, nano, DefaultSpec(), 24, 30, 0.7)
	if fast.VSafeMS <= slow.VSafeMS || fast.Profile.Missions <= slow.Profile.Missions {
		t.Fatal("higher action throughput must yield a higher safe velocity and more missions (Eq. 4)")
	}
	if got, want := fast.Profile.Missions/slow.Profile.Missions, fast.VSafeMS/slow.VSafeMS; math.Abs(got-want) > 1e-9 {
		t.Fatalf("missions must scale linearly with v: ratio %g, velocity ratio %g", got, want)
	}
}

func TestHeavierPayloadFewerMissions(t *testing.T) {
	nano := defaultLoadout(t, "nano")
	light := fly(t, nano, DefaultSpec(), 24, 46, 0.7)
	heavy := fly(t, nano, DefaultSpec(), 65, 46, 0.7)
	if heavy.Profile.Missions >= light.Profile.Missions {
		t.Fatal("heavier payload must cost missions via rotor power")
	}
}

func TestRotorsDominateSoCPower(t *testing.T) {
	// MAVBench observation the paper cites: ~95% of power goes to rotors on
	// conventional UAVs; verify our Pelican profile has the same structure.
	prof := fly(t, defaultLoadout(t, "pelican"), DefaultSpec(), 24, 46, 0.7).Profile
	if frac := prof.RotorPowerW / prof.TotalW; frac < 0.9 {
		t.Fatalf("rotor fraction = %.2f, want > 0.9 for the mini-UAV", frac)
	}
}
