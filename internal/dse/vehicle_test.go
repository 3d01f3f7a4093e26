package dse

import (
	"context"
	"reflect"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/catalog"
	"autopilot/internal/power"
)

// vehicleSpace opens the battery and sensor axes over a nano base airframe —
// the canonical SWaP co-design space the acceptance criteria exercise.
func vehicleSpace() Space {
	s := DefaultSpace()
	s.Batteries = []string{"lipo-1s-250", "lipo-1s-500", "lipo-1s-750"}
	s.Sensors = catalog.SensorNames()
	s.BaseAirframe = "nano"
	return s
}

// TestVehicleSpaceValidates: vehicle names are checked up front, typed per
// axis, and the axis count extends the legacy encoding.
func TestVehicleSpaceValidates(t *testing.T) {
	s := vehicleSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !s.HasVehicleAxes() {
		t.Fatal("vehicle space reports no vehicle axes")
	}
	bad := vehicleSpace()
	bad.Batteries = append(bad.Batteries, "lipo-unobtainium")
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown battery validated")
	}
	legacy := DefaultSpace()
	if legacy.HasVehicleAxes() {
		t.Fatal("legacy space reports vehicle axes")
	}
}

// TestVehicleAxesAppendAfterLegacyAxes: the vehicle axes must extend the
// parameter-space encoding strictly at the end, so the RNG draw order of the
// legacy axes — and with it every legacy golden — is untouched.
func TestVehicleAxesAppendAfterLegacyAxes(t *testing.T) {
	legacy := DefaultSpace().ParamSpace()
	vehicle := vehicleSpace().ParamSpace()
	if len(vehicle.Axes) != len(legacy.Axes)+2 {
		t.Fatalf("axis count %d, want %d", len(vehicle.Axes), len(legacy.Axes)+2)
	}
	for i, ax := range legacy.Axes {
		if vehicle.Axes[i].Name != ax.Name {
			t.Fatalf("axis %d renamed %q -> %q", i, ax.Name, vehicle.Axes[i].Name)
		}
	}
}

// TestVehicleFrontierHasDistinctLoadouts is the acceptance criterion: a
// battery+sensor co-search returns a Pareto front holding at least two
// distinct loadouts, and every scored design carries its vehicle metrics.
func TestVehicleFrontierHasDistinctLoadouts(t *testing.T) {
	res, err := run(vehicleSpace(), surrogateDB(), airlearning.DenseObstacle,
		power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pareto()) == 0 {
		t.Fatal("empty front")
	}
	loadouts := map[VehicleRef]bool{}
	for _, e := range res.Pareto() {
		if e.Design.Vehicle == (VehicleRef{}) {
			t.Fatalf("frontier design %s lost its loadout", e.Design)
		}
		if e.Vehicle.Loadout != e.Design.Vehicle {
			t.Fatalf("frontier design %s: eval loadout %s != design loadout %s",
				e.Design, e.Vehicle.Loadout, e.Design.Vehicle)
		}
		if e.Vehicle.TotalWeightG <= 0 || e.Vehicle.Missions <= 0 || e.Vehicle.TotalPowerW <= 0 {
			t.Fatalf("frontier design %s has empty vehicle metrics %+v", e.Design, e.Vehicle)
		}
		loadouts[e.Design.Vehicle] = true
	}
	if len(loadouts) < 2 {
		t.Fatalf("front holds %d distinct loadouts, want >= 2: %v", len(loadouts), loadouts)
	}
}

// TestVehicleInfeasibleBecomesTypedSkip: a space whose only battery cannot
// power the large accelerators produces Skip records — typed answers about
// the design space — and those designs never appear as scored points.
func TestVehicleInfeasibleBecomesTypedSkip(t *testing.T) {
	s := DefaultSpace()
	s.Layers = []int{2}
	s.Filters = []int{32}
	s.PERows = []int{8, 1024}
	s.PECols = []int{8, 1024}
	s.SRAMKB = []int{4096}
	s.Batteries = []string{"lipo-1s-250"}
	s.BaseAirframe = "nano"
	res, err := run(s, surrogateDB(), airlearning.DenseObstacle, power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skips) == 0 {
		t.Fatal("1024x1024 arrays on a 14 W pack produced no skips")
	}
	scored := map[string]bool{}
	for _, e := range res.Evaluated {
		scored[e.Design.String()] = true
	}
	for _, sk := range res.Skips {
		if sk.Reason != string(catalog.ReasonPower) && sk.Reason != string(catalog.ReasonThrust) &&
			sk.Reason != string(catalog.ReasonWeight) {
			t.Errorf("skip %s has unknown reason %q", sk.Design, sk.Reason)
		}
		if sk.Loadout.Battery != "lipo-1s-250" {
			t.Errorf("skip %s on battery %q", sk.Design, sk.Loadout.Battery)
		}
		if scored[sk.Design] {
			t.Errorf("design %s was both skipped and scored", sk.Design)
		}
	}
	if len(res.Failures) != 0 {
		t.Fatalf("infeasible loadouts leaked into Failures: %v", res.Failures)
	}
}

// TestVehicleDeterministicAcrossWorkerCounts extends the bitwise workers=1
// vs workers=8 guarantee to the full-vehicle space, including the skip
// records.
func TestVehicleDeterministicAcrossWorkerCounts(t *testing.T) {
	exec := func(workers int) *Result {
		res, err := Execute(context.Background(), Request{
			Space:    vehicleSpace(),
			DB:       surrogateDB(),
			Scenario: airlearning.DenseObstacle,
			Power:    power.Default(),
			Config:   smallConfig(),
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := exec(1), exec(8)
	if !reflect.DeepEqual(seq.Evaluated, par.Evaluated) {
		t.Fatal("vehicle evaluations differ across worker counts")
	}
	if !reflect.DeepEqual(seq.ParetoIdx, par.ParetoIdx) {
		t.Fatalf("vehicle fronts differ:\n%v\n%v", seq.ParetoIdx, par.ParetoIdx)
	}
	if !reflect.DeepEqual(seq.Skips, par.Skips) {
		t.Fatalf("skip records differ:\n%v\n%v", seq.Skips, par.Skips)
	}
}

// TestLegacySpaceHasNoVehicleTrace: without vehicle axes nothing changes —
// no skips, no loadouts, no vehicle metrics.
func TestLegacySpaceHasNoVehicleTrace(t *testing.T) {
	res, err := run(DefaultSpace(), surrogateDB(), airlearning.DenseObstacle,
		power.Default(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skips) != 0 {
		t.Fatalf("legacy run produced %d skips", len(res.Skips))
	}
	for _, e := range res.Evaluated {
		if e.Design.Vehicle != (VehicleRef{}) || e.Vehicle != (VehicleEval{}) {
			t.Fatalf("legacy design %s carries vehicle state %+v", e.Design, e.Vehicle)
		}
	}
}

// TestVehicleAxesEveryOptimizer: every optimizer searches the vehicle space
// through the same loop as the Bayesian one — infeasible loadouts become
// typed skips that are never scored, the front keeps at least two loadouts,
// and the result is bitwise identical at one and at eight workers.
func TestVehicleAxesEveryOptimizer(t *testing.T) {
	for _, opt := range []Optimizer{OptGenetic, OptAnnealing, OptReinforce, OptRandom} {
		exec := func(workers int) *Result {
			res, err := Execute(context.Background(), Request{
				Space: vehicleSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
				Power: power.Default(), Config: smallConfig(), Optimizer: opt, Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s: %v", opt, err)
			}
			return res
		}
		res := exec(1)
		if got, want := resultDigest(exec(8)), resultDigest(res); got != want {
			t.Errorf("%s: workers=8 digest %s, workers=1 %s", opt, got, want)
		}
		if len(res.Skips) == 0 {
			t.Errorf("%s: no typed skips on the vehicle space", opt)
		}
		if len(res.Failures) != 0 {
			t.Errorf("%s: infeasible loadouts leaked into Failures: %v", opt, res.Failures)
		}
		scored := map[string]bool{}
		for _, e := range res.Evaluated {
			scored[e.Design.String()] = true
		}
		for _, sk := range res.Skips {
			if scored[sk.Design] {
				t.Errorf("%s: design %s was both skipped and scored", opt, sk.Design)
			}
			if sk.Reason != string(catalog.ReasonPower) && sk.Reason != string(catalog.ReasonThrust) &&
				sk.Reason != string(catalog.ReasonWeight) {
				t.Errorf("%s: skip %s has unknown reason %q", opt, sk.Design, sk.Reason)
			}
		}
		loadouts := map[VehicleRef]bool{}
		for _, e := range res.Pareto() {
			loadouts[e.Design.Vehicle] = true
		}
		if len(loadouts) < 2 {
			t.Errorf("%s: front holds %d distinct loadouts, want >= 2", opt, len(loadouts))
		}
	}
}
