// Package mission implements the paper's domain-specific evaluation metrics
// (§IV, Eq. 1–4): mission energy and the number of missions per battery
// charge, built on a momentum-theory rotor hover-power model. The number of
// missions is
//
//	N = E_battery · V_safe / ((P_rotors + P_compute + P_others) · D_operation)
package mission

import (
	"fmt"
	"math"

	"autopilot/internal/catalog"
	"autopilot/internal/f1"
)

// Params holds the rotor power-model constants.
type Params struct {
	AirDensityKgM3 float64 // ρ
	FigureOfMerit  float64 // rotor + drivetrain efficiency
}

// DefaultParams returns standard sea-level air and a typical small-rotor
// figure of merit.
func DefaultParams() Params {
	return Params{AirDensityKgM3: 1.225, FigureOfMerit: 0.5}
}

// RotorHoverPowerW returns the electrical power to hover at the given all-up
// mass, from momentum theory: P = T^1.5 / (FM · sqrt(2·ρ·A)) with T = m·g.
func (p Params) RotorHoverPowerW(massKg, discAreaM2 float64) float64 {
	if massKg <= 0 || discAreaM2 <= 0 {
		return 0
	}
	thrust := massKg * catalog.Gravity
	return math.Pow(thrust, 1.5) / (p.FigureOfMerit * math.Sqrt(2*p.AirDensityKgM3*discAreaM2))
}

// Spec describes a mission.
type Spec struct {
	DistanceM float64 // D_operation: distance flown per mission
}

// DefaultSpec is a representative short-range autonomous sortie.
func DefaultSpec() Spec { return Spec{DistanceM: 1000} }

// Profile is the mission-level evaluation of one (loadout, compute payload,
// safe velocity) combination.
type Profile struct {
	VSafeMS     float64
	RotorPowerW float64
	ComputeW    float64
	OthersW     float64
	TotalW      float64
	MissionTime float64 // seconds per mission
	MissionJ    float64 // Eq. 3
	Missions    float64 // Eq. 4
}

// Flight is one compute payload flown on a loadout: the F-1 operating point
// at the loaded vehicle's acceleration and the Eq. 1–4 profile at the safe
// velocity it allows.
type Flight struct {
	KneeHz       float64
	ActionHz     float64
	Bound        f1.Bound
	Provisioning f1.Provisioning
	VSafeMS      float64
	Profile      Profile
}

// EvaluateLoadout flies payloadG grams of compute, running at computeFPS and
// drawing computeW watts, on a catalog loadout whose sensor runs at
// sensorFPS: the paper's Phase-3 chain, and the one evaluation every design
// goes through. It runs the catalog's full feasibility check once — weight
// budget, thrust floor, and battery discharge limit against the total draw —
// and returns a typed *catalog.InfeasibleError when the loadout cannot fly.
// A feasible loadout gets its F-1 knee once, at its acceleration with the
// payload; the effective action throughput, provisioning, and safe velocity
// follow, and the Eq. 1–4 profile is scored at that velocity. When the safe
// velocity is not positive (no compute throughput) the error comes back
// with the F-1 fields still set.
func EvaluateLoadout(lo catalog.Loadout, params Params, spec Spec, model f1.Model, payloadG, computeFPS, computeW, sensorFPS float64) (Flight, error) {
	if spec.DistanceM <= 0 {
		return Flight{}, fmt.Errorf("mission: non-positive distance %g", spec.DistanceM)
	}
	rotor := params.RotorHoverPowerW(lo.TotalMassKg(payloadG), lo.Airframe.RotorDiscAreaM2)
	total := rotor + computeW + lo.Airframe.OtherPowerW
	if err := lo.Feasible(payloadG, total); err != nil {
		return Flight{}, err
	}
	accel := lo.MaxAccelMS2(payloadG)
	fl := Flight{KneeHz: model.KneePoint(accel)}
	fl.ActionHz, fl.Bound = f1.EffectiveThroughput(computeFPS, sensorFPS, fl.KneeHz)
	fl.Provisioning = f1.Classify(fl.ActionHz, fl.KneeHz)
	fl.VSafeMS = model.SafeVelocity(fl.ActionHz, accel)
	if fl.VSafeMS <= 0 {
		return fl, fmt.Errorf("mission: non-positive safe velocity %g", fl.VSafeMS)
	}
	t := spec.DistanceM / fl.VSafeMS
	e := total * t
	fl.Profile = Profile{
		VSafeMS:     fl.VSafeMS,
		RotorPowerW: rotor,
		ComputeW:    computeW,
		OthersW:     lo.Airframe.OtherPowerW,
		TotalW:      total,
		MissionTime: t,
		MissionJ:    e,
		Missions:    lo.Battery.EnergyJ() / e,
	}
	return fl, nil
}
