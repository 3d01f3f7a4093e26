package dse

import (
	"errors"
	"fmt"

	"autopilot/internal/catalog"
	"autopilot/internal/f1"
	"autopilot/internal/fault"
	"autopilot/internal/mission"
	"autopilot/internal/power"
	"autopilot/internal/thermal"
)

// VehicleRef names a fully-resolved catalog loadout by its component keys.
// It is a comparable value type so DesignPoint stays usable as a map key;
// the zero value means "no vehicle axes" — the legacy SoC-only evaluation.
type VehicleRef struct {
	Airframe string
	Battery  string
	Sensor   string
}

// String renders the loadout keys.
func (v VehicleRef) String() string {
	return v.Airframe + "/" + v.Battery + "/" + v.Sensor
}

// Loadout resolves the reference against the component catalog.
func (v VehicleRef) Loadout() (catalog.Loadout, error) {
	return catalog.BuildLoadout(v.Airframe, v.Battery, v.Sensor)
}

// VehicleEval is the full-vehicle extension of a scored design: the loadout
// it flew on and the SWaP-level metrics the vehicle objectives rank by.
type VehicleEval struct {
	Loadout      VehicleRef
	PayloadG     float64 // compute payload from the thermal model
	TotalWeightG float64 // loadout base weight + compute payload
	TotalPowerW  float64 // rotors + SoC + airframe electronics
	VSafeMS      float64
	Missions     float64
}

// VehicleParams holds the mission/thermal context a vehicle-axis evaluation
// needs; the zero value selects the defaults.
type VehicleParams struct {
	Mission mission.Spec
	Params  mission.Params
	Thermal thermal.Params
	// SensorFPS is the request's sensor frame rate; 0 flies each design at
	// its loadout sensor's fastest mode.
	SensorFPS float64
}

// SensorRate is the frame rate a vehicle design on lo flies at: the
// request's SensorFPS when set, otherwise the loadout sensor's fastest mode.
// Phase 2 and Phase 3 both resolve it here.
func (p VehicleParams) SensorRate(lo catalog.Loadout) float64 {
	if p.SensorFPS > 0 {
		return p.SensorFPS
	}
	return lo.Sensor.MaxFPS()
}

// DefaultVehicleParams returns the default mission and thermal context.
func DefaultVehicleParams() VehicleParams {
	return VehicleParams{
		Mission: mission.DefaultSpec(),
		Params:  mission.DefaultParams(),
		Thermal: thermal.Default(),
	}
}

// Skip records one design whose loadout failed the catalog feasibility check.
// Skips are typed answers about the design space — "this loadout cannot fly
// this accelerator" — not faults: they appear in Result.Skips, never in
// Result.Failures or the scored set, and don't count against failure budgets.
type Skip struct {
	Design  string
	Loadout VehicleRef
	Reason  string // catalog.InfeasibleReason: weight | thrust | power
	Detail  string
}

// isInfeasible reports whether an evaluation error is (or wraps) a typed
// catalog infeasibility verdict.
func isInfeasible(err error) bool {
	var ie *catalog.InfeasibleError
	return errors.As(err, &ie)
}

// asSkip converts an infeasible-loadout evaluation error into its Skip
// record; ok is false for every other error.
func asSkip(d DesignPoint, err error) (Skip, bool) {
	var ie *catalog.InfeasibleError
	if !errors.As(err, &ie) {
		return Skip{}, false
	}
	return Skip{Design: d.String(), Loadout: d.Vehicle, Reason: string(ie.Reason), Detail: ie.Detail}, true
}

// NewVehicleEval is the vehicle-eval block of a design flown on a loadout:
// the loadout's weight with the compute payload, and the flight's draw, safe
// velocity and missions (zero for a flight the loadout could not make).
func NewVehicleEval(v VehicleRef, lo catalog.Loadout, payloadG float64, fl mission.Flight) VehicleEval {
	return VehicleEval{
		Loadout:      v,
		PayloadG:     payloadG,
		TotalWeightG: lo.BaseWeightG() + payloadG,
		TotalPowerW:  fl.Profile.TotalW,
		VSafeMS:      fl.VSafeMS,
		Missions:     fl.Profile.Missions,
	}
}

// vehicleFinish extends a scored SoC estimate to the full vehicle: resolve
// the loadout, derive the flown compute payload from the accelerator TDP,
// swap the Table III sensor power for the loadout's sensor, and fly it
// through mission.EvaluateLoadout at the request's sensor rate — the same
// evaluation Phase 3 runs. Infeasible loadouts return a typed
// *catalog.InfeasibleError (wrapped), which the sweep layers record as skips
// rather than failures.
func (ev *Evaluator) vehicleFinish(d DesignPoint, e Evaluated) (Evaluated, error) {
	lo, err := d.Vehicle.Loadout()
	if err != nil {
		return Evaluated{}, fmt.Errorf("dse: %v: %w", d, err)
	}
	payloadG := ev.vp.Thermal.ComputeWeightGrams(e.AccelPowerW)
	socW := power.SoCWithSensor(e.Breakdown, lo.Sensor.PowerW)
	fl, err := mission.EvaluateLoadout(lo, ev.vp.Params, ev.vp.Mission, f1.ForScenario(ev.scen),
		payloadG, e.FPS, socW, ev.vp.SensorRate(lo))
	if err != nil {
		return Evaluated{}, fmt.Errorf("dse: %v: %w", d, err)
	}
	e.SoCPowerW = socW
	e.Vehicle = NewVehicleEval(d.Vehicle, lo, payloadG, fl)
	if err := fault.CheckFinite("vehicle",
		e.Vehicle.PayloadG, e.Vehicle.TotalWeightG, e.Vehicle.TotalPowerW,
		e.Vehicle.VSafeMS, e.Vehicle.Missions); err != nil {
		return Evaluated{}, fmt.Errorf("dse: %v: %w", d, err)
	}
	return e, nil
}
