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
	"autopilot/internal/uav"
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
	thrust := massKg * uav.Gravity
	return math.Pow(thrust, 1.5) / (p.FigureOfMerit * math.Sqrt(2*p.AirDensityKgM3*discAreaM2))
}

// Spec describes a mission.
type Spec struct {
	DistanceM float64 // D_operation: distance flown per mission
}

// DefaultSpec is a representative short-range autonomous sortie.
func DefaultSpec() Spec { return Spec{DistanceM: 1000} }

// Profile is the full mission-level evaluation of one (UAV, compute payload,
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

// Evaluate computes Eq. 1–4 for a platform carrying payloadG grams of
// compute that draws computeW watts and sustains safe velocity vSafe.
func Evaluate(p uav.Platform, params Params, spec Spec, payloadG, computeW, vSafe float64) (Profile, error) {
	if spec.DistanceM <= 0 {
		return Profile{}, fmt.Errorf("mission: non-positive distance %g", spec.DistanceM)
	}
	if vSafe <= 0 {
		return Profile{}, fmt.Errorf("mission: non-positive safe velocity %g", vSafe)
	}
	if !p.CanLift(payloadG) {
		return Profile{}, fmt.Errorf("mission: %s cannot lift %.0f g payload", p.Name, payloadG)
	}
	rotor := params.RotorHoverPowerW(p.TotalMassKg(payloadG), p.RotorDiscAreaM2)
	return profileFor(spec, p.BatteryJ(), rotor, computeW, p.OtherPowerW, vSafe), nil
}

// profileFor assembles Eq. 1–4 from the already-resolved power terms. Both
// the legacy platform path and the catalog loadout path end here, so the
// mission arithmetic (and its float expression order) lives in one place.
func profileFor(spec Spec, batteryJ, rotor, computeW, othersW, vSafe float64) Profile {
	total := rotor + computeW + othersW
	t := spec.DistanceM / vSafe
	e := total * t
	return Profile{
		VSafeMS:     vSafe,
		RotorPowerW: rotor,
		ComputeW:    computeW,
		OthersW:     othersW,
		TotalW:      total,
		MissionTime: t,
		MissionJ:    e,
		Missions:    batteryJ / e,
	}
}

// EvaluateLoadout computes Eq. 1–4 for a catalog loadout carrying payloadG
// grams of compute drawing computeW watts at safe velocity vSafe. Unlike the
// legacy platform path it runs the catalog's full feasibility check — weight
// budget, thrust floor, and battery discharge limit against the total draw —
// and returns a typed *catalog.InfeasibleError when the loadout cannot fly.
func EvaluateLoadout(lo catalog.Loadout, params Params, spec Spec, payloadG, computeW, vSafe float64) (Profile, error) {
	if spec.DistanceM <= 0 {
		return Profile{}, fmt.Errorf("mission: non-positive distance %g", spec.DistanceM)
	}
	if vSafe <= 0 {
		return Profile{}, fmt.Errorf("mission: non-positive safe velocity %g", vSafe)
	}
	rotor := params.RotorHoverPowerW(lo.TotalMassKg(payloadG), lo.Airframe.RotorDiscAreaM2)
	total := rotor + computeW + lo.Airframe.OtherPowerW
	if err := lo.Feasible(payloadG, total); err != nil {
		return Profile{}, err
	}
	return profileFor(spec, lo.Battery.EnergyJ(), rotor, computeW, lo.Airframe.OtherPowerW, vSafe), nil
}
