package mission

import (
	"math"
	"testing"

	"autopilot/internal/uav"
)

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
	p := DefaultParams()
	cases := []struct {
		plat   uav.Platform
		lo, hi float64
	}{
		{uav.ZhangNano(), 6, 14},
		{uav.DJISpark(), 12, 24},
		{uav.AscTecPelican(), 15, 28},
	}
	for _, c := range cases {
		prof, err := Evaluate(c.plat, p, DefaultSpec(), 24, 0.7, 5)
		if err != nil {
			t.Fatal(err)
		}
		min := c.plat.BatteryJ() / prof.TotalW / 60 // hover endurance
		if min < c.lo || min > c.hi {
			t.Errorf("%s: flight time %.1f min outside [%g, %g]", c.plat.Name, min, c.lo, c.hi)
		}
	}
}

func TestEvaluateEquationConsistency(t *testing.T) {
	p := DefaultParams()
	nano := uav.ZhangNano()
	prof, err := Evaluate(nano, p, Spec{DistanceM: 500}, 24, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 2/3: E = P·t with t = D/v
	if math.Abs(prof.MissionTime-100) > 1e-9 {
		t.Fatalf("mission time = %g, want 100 s", prof.MissionTime)
	}
	if math.Abs(prof.MissionJ-prof.TotalW*prof.MissionTime) > 1e-9 {
		t.Fatal("E != P·t")
	}
	// Eq. 1/4: N = E_batt / E_mission
	if math.Abs(prof.Missions-nano.BatteryJ()/prof.MissionJ) > 1e-9 {
		t.Fatal("N != E_batt / E_mission")
	}
	if math.Abs(prof.TotalW-(prof.RotorPowerW+prof.ComputeW+prof.OthersW)) > 1e-9 {
		t.Fatal("total power must sum components")
	}
}

func TestEvaluateErrors(t *testing.T) {
	p := DefaultParams()
	nano := uav.ZhangNano()
	if _, err := Evaluate(nano, p, Spec{}, 24, 0.7, 5); err == nil {
		t.Error("expected error for zero distance")
	}
	if _, err := Evaluate(nano, p, DefaultSpec(), 24, 0.7, 0); err == nil {
		t.Error("expected error for zero velocity")
	}
	if _, err := Evaluate(nano, p, DefaultSpec(), 5000, 0.7, 5); err == nil {
		t.Error("expected error for unliftable payload")
	}
}

func TestFasterIsMoreMissionsAtSamePower(t *testing.T) {
	p := DefaultParams()
	nano := uav.ZhangNano()
	slow, err := Evaluate(nano, p, DefaultSpec(), 24, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Evaluate(nano, p, DefaultSpec(), 24, 0.7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Missions <= slow.Missions {
		t.Fatal("higher safe velocity must yield more missions (Eq. 4)")
	}
	if math.Abs(fast.Missions/slow.Missions-3) > 1e-9 {
		t.Fatalf("missions must scale linearly with v: ratio %g", fast.Missions/slow.Missions)
	}
}

func TestHeavierPayloadFewerMissions(t *testing.T) {
	p := DefaultParams()
	nano := uav.ZhangNano()
	light, err := Evaluate(nano, p, DefaultSpec(), 24, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Evaluate(nano, p, DefaultSpec(), 65, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.Missions >= light.Missions {
		t.Fatal("heavier payload must cost missions via rotor power")
	}
}

func TestRotorsDominateSoCPower(t *testing.T) {
	// MAVBench observation the paper cites: ~95% of power goes to rotors on
	// conventional UAVs; verify our Pelican profile has the same structure.
	p := DefaultParams()
	prof, err := Evaluate(uav.AscTecPelican(), p, DefaultSpec(), 24, 0.7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if frac := prof.RotorPowerW / prof.TotalW; frac < 0.9 {
		t.Fatalf("rotor fraction = %.2f, want > 0.9 for the mini-UAV", frac)
	}
}
