package mission

import (
	"errors"
	"testing"

	"autopilot/internal/catalog"
	"autopilot/internal/uav"
)

// TestLoadoutMatchesLegacyPlatformBitwise: for the three Table IV airframes
// with their default battery and sensor, EvaluateLoadout must reproduce the
// legacy Evaluate-on-uav.Platform profile bitwise — the thin-view contract
// of the catalog refactor.
func TestLoadoutMatchesLegacyPlatformBitwise(t *testing.T) {
	params, spec := DefaultParams(), DefaultSpec()
	for name, plat := range map[string]uav.Platform{
		"pelican": uav.AscTecPelican(),
		"spark":   uav.DJISpark(),
		"nano":    uav.ZhangNano(),
	} {
		lo, err := catalog.DefaultLoadout(name)
		if err != nil {
			t.Fatal(err)
		}
		const payloadG, computeW, vSafe = 20, 1.5, 4.0
		legacy, err := Evaluate(plat, params, spec, payloadG, computeW, vSafe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateLoadout(lo, params, spec, payloadG, computeW, vSafe)
		if err != nil {
			t.Fatal(err)
		}
		if got != legacy {
			t.Errorf("%s: loadout profile %+v != legacy %+v", name, got, legacy)
		}
	}
}

// TestPayloadWeightMonotonicity: adding compute payload can never help the
// vehicle — maximum acceleration, hover endurance, and missions per charge
// are all non-increasing in payload weight.
func TestPayloadWeightMonotonicity(t *testing.T) {
	params, spec := DefaultParams(), DefaultSpec()
	for _, name := range catalog.AirframeNames() {
		lo, err := catalog.DefaultLoadout(name)
		if err != nil {
			t.Fatal(err)
		}
		const computeW, vSafe = 1.0, 3.0
		prevAccel, prevEnd, prevMissions := 0.0, 0.0, 0.0
		first := true
		for payloadG := 0.0; payloadG <= 200; payloadG += 10 {
			accel := lo.MaxAccelMS2(payloadG)
			prof, err := EvaluateLoadout(lo, params, spec, payloadG, computeW, vSafe)
			if err != nil {
				// Heavier payloads may become infeasible; that only
				// strengthens the property — but the error must be the typed
				// kind, checked elsewhere. Stop the sweep here.
				break
			}
			end := lo.Battery.EnergyJ() / prof.TotalW / 60 // hover endurance, minutes
			if !first {
				if accel > prevAccel {
					t.Errorf("%s: accel rose %.4f -> %.4f at %g g", name, prevAccel, accel, payloadG)
				}
				if end > prevEnd {
					t.Errorf("%s: endurance rose %.4f -> %.4f min at %g g", name, prevEnd, end, payloadG)
				}
				if prof.Missions > prevMissions {
					t.Errorf("%s: missions rose %.4f -> %.4f at %g g", name, prevMissions, prof.Missions, payloadG)
				}
			}
			prevAccel, prevEnd, prevMissions = accel, end, prof.Missions
			first = false
		}
	}
}

// TestEvaluateLoadoutInfeasibleTyped: an overloaded loadout comes back as a
// typed *catalog.InfeasibleError, not an untyped arithmetic failure.
func TestEvaluateLoadoutInfeasibleTyped(t *testing.T) {
	lo, err := catalog.DefaultLoadout("nano")
	if err != nil {
		t.Fatal(err)
	}
	_, err = EvaluateLoadout(lo, DefaultParams(), DefaultSpec(), 300, 1.0, 3.0)
	if err == nil {
		t.Fatal("300 g on a nano should be infeasible")
	}
	var inf *catalog.InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("untyped infeasibility: %v", err)
	}
	if inf.Reason != catalog.ReasonWeight && inf.Reason != catalog.ReasonThrust {
		t.Errorf("reason = %s, want weight or thrust", inf.Reason)
	}
}

// TestEnduranceMonotoneInComputePower: more compute draw always shortens
// hover endurance.
func TestEnduranceMonotoneInComputePower(t *testing.T) {
	lo, err := catalog.DefaultLoadout("spark")
	if err != nil {
		t.Fatal(err)
	}
	endurance := func(computeW float64) float64 {
		prof, err := EvaluateLoadout(lo, DefaultParams(), DefaultSpec(), 50, computeW, 3)
		if err != nil {
			t.Fatal(err)
		}
		return lo.Battery.EnergyJ() / prof.TotalW / 60
	}
	prev := endurance(0.1)
	for w := 1.0; w <= 20; w += 1 {
		end := endurance(w)
		if end >= prev {
			t.Fatalf("endurance did not fall at %g W: %.4f >= %.4f", w, end, prev)
		}
		prev = end
	}
}
