package mission

import (
	"errors"
	"testing"

	"autopilot/internal/catalog"
)

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
		const computeFPS, computeW = 30.0, 1.0
		prevAccel, prevEnd, prevMissions := 0.0, 0.0, 0.0
		first := true
		for payloadG := 0.0; payloadG <= 200; payloadG += 10 {
			accel := lo.MaxAccelMS2(payloadG)
			fl, err := EvaluateLoadout(lo, params, spec, denseF1, payloadG, computeFPS, computeW, 60)
			if err != nil {
				// Heavier payloads may become infeasible; that only
				// strengthens the property — but the error must be the typed
				// kind, checked elsewhere. Stop the sweep here.
				break
			}
			prof := fl.Profile
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
	_, err = EvaluateLoadout(lo, DefaultParams(), DefaultSpec(), denseF1, 300, 46, 1.0, 60)
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
		fl, err := EvaluateLoadout(lo, DefaultParams(), DefaultSpec(), denseF1, 50, 46, computeW, 60)
		if err != nil {
			t.Fatal(err)
		}
		return lo.Battery.EnergyJ() / fl.Profile.TotalW / 60
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
