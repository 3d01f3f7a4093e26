package uav

import (
	"math"
	"testing"

	"autopilot/internal/catalog"
)

func TestPlatformsMatchTableIV(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 {
		t.Fatalf("platforms = %d", len(ps))
	}
	for _, c := range []struct {
		lo              catalog.Loadout
		mAh, weightG    float64
		class, airframe string
	}{
		{ps[0], 6250, 1650, "mini", "pelican"},
		{ps[1], 1480, 300, "micro", "spark"},
		{ps[2], 500, 50, "nano", "nano"},
	} {
		lo := c.lo
		if lo.Battery.CapacitymAh != c.mAh || lo.BaseWeightG() != c.weightG ||
			lo.Airframe.Class != c.class || lo.Airframe.Name != c.airframe {
			t.Errorf("%s = %+v, want %g mAh, %g g, class %s", lo, lo, c.mAh, c.weightG, c.class)
		}
	}
}

func TestAllPlatformsValid(t *testing.T) {
	for _, p := range Platforms() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestValidateRejectsBadPlatform(t *testing.T) {
	if err := (catalog.Loadout{}).Validate(); err == nil {
		t.Error("empty platform must be invalid")
	}
	heavy := ZhangNano()
	heavy.Airframe.FrameWeightG = 100000
	if err := heavy.Validate(); err == nil {
		t.Error("platform that cannot lift itself must be invalid")
	}
}

func TestBatteryEnergy(t *testing.T) {
	// nano: 500 mAh × 3.7 V × 3.6 = 6660 J
	if got := ZhangNano().Battery.EnergyJ(); math.Abs(got-6660) > 1 {
		t.Fatalf("nano battery = %g J, want 6660", got)
	}
	// Pelican ~250 kJ
	if got := AscTecPelican().Battery.EnergyJ(); got < 200e3 || got > 300e3 {
		t.Fatalf("Pelican battery = %g J", got)
	}
}

func TestMaxAccelDecreasesWithPayload(t *testing.T) {
	for _, p := range Platforms() {
		if a0, a50 := p.MaxAccelMS2(0), p.MaxAccelMS2(50); a50 >= a0 {
			t.Errorf("%s: payload did not reduce acceleration", p)
		}
	}
}

func TestMaxAccelZeroWhenOverloaded(t *testing.T) {
	n := ZhangNano()
	// nano max thrust 2.9 N lifts ~296 g total
	if a := n.MaxAccelMS2(500); a != 0 {
		t.Fatalf("overloaded accel = %g, want 0", a)
	}
	if n.FeasibleWeight(500) == nil {
		t.Fatal("nano must not lift 500 g")
	}
	if err := n.FeasibleWeight(24); err != nil {
		t.Fatalf("nano must lift a 24 g compute payload: %v", err)
	}
}

func TestNanoMoreAgileThanSpark(t *testing.T) {
	// paper §V-C: the nano has a higher thrust-to-weight ratio than the Spark
	payload := 24.0
	if ZhangNano().MaxAccelMS2(payload) <= DJISpark().MaxAccelMS2(payload) {
		t.Fatal("nano must out-accelerate the Spark")
	}
}

func TestMaxSensorFPS(t *testing.T) {
	if got := ZhangNano().Airframe.MaxSensorFPS(); got != 60 {
		t.Fatalf("max sensor FPS = %g, want 60 (Table IV: 30/60)", got)
	}
}

func TestBaselinesValid(t *testing.T) {
	for _, b := range AllBaselines() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Label, err)
		}
	}
	if err := (catalog.ComputeBoard{}).Validate(); err == nil {
		t.Error("empty baseline must be invalid")
	}
}

func TestPULPPinnedAtSixFPS(t *testing.T) {
	p := PULPDroNet()
	// paper §V-A: optimistic assumption of 6 FPS at 64 mW regardless of
	// model size
	if p.FPSFor(1e6) != 6 || p.FPSFor(100e6) != 6 {
		t.Fatal("PULP FPS must be pinned at 6")
	}
	if p.PowerW != 0.064 {
		t.Fatalf("PULP power = %g, want 0.064", p.PowerW)
	}
}

func TestBaselineFPSScalesWithModelSize(t *testing.T) {
	tx2 := JetsonTX2()
	small := tx2.FPSFor(10e6)
	big := tx2.FPSFor(50e6)
	if small <= big {
		t.Fatal("smaller models must run faster")
	}
	if math.Abs(small/big-5) > 1e-9 {
		t.Fatalf("FPS must scale inversely with weights: ratio %g", small/big)
	}
	if tx2.FPSFor(0) != 0 {
		t.Fatal("degenerate model size must give 0 FPS")
	}
}

func TestTX2HeavierThanNanoCanCarryComfortably(t *testing.T) {
	// the Fig. 5 story: general-purpose boards crush small UAVs
	n := ZhangNano()
	tx2 := JetsonTX2()
	if a := n.MaxAccelMS2(tx2.WeightG); a > 3 {
		t.Fatalf("nano with TX2 accel = %.1f m/s², should be crippled (< 3)", a)
	}
}

func TestOV9755MatchesTableIII(t *testing.T) {
	s, err := catalog.SensorByName("ov9755")
	if err != nil {
		t.Fatal(err)
	}
	if s.PowerW != 0.1 {
		t.Errorf("power = %g, want 0.1 (Table III: 100 mW)", s.PowerW)
	}
	if s.MaxFPS() != 90 {
		t.Errorf("max FPS = %g, want 90 (Table III: 30-90 FPS)", s.MaxFPS())
	}
	if len(s.Modes) != 3 {
		t.Errorf("modes = %d", len(s.Modes))
	}
}
