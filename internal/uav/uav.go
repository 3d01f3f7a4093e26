// Package uav defines the base UAV platforms from the paper's Table IV
// (AscTec Pelican mini-UAV, DJI Spark micro-UAV, and the Zhang et al. nano
// quadrotor), their physics parameters (battery, thrust, rotor geometry),
// the onboard sensors, and the baseline compute platforms the paper compares
// against (Jetson TX2, Xavier NX, PULP-DroNet, Intel NCS).
package uav

import (
	"fmt"

	"autopilot/internal/catalog"
)

// Class is the UAV size category.
type Class int

// UAV classes (paper Table IV).
const (
	Mini Class = iota
	Micro
	Nano
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Mini:
		return "mini"
	case Micro:
		return "micro"
	case Nano:
		return "nano"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Gravity is standard gravitational acceleration (m/s²), shared with the
// component-catalog layer so the lift arithmetic cannot drift.
const Gravity = catalog.Gravity

// Platform is one base UAV system (frame + rotors + battery + flight
// controller), fixed per Table IV; only the autonomy components (compute,
// algorithm) are co-designed.
type Platform struct {
	Name  string
	Class Class

	BatteryCapacitymAh float64
	BatteryVoltage     float64
	BaseWeightG        float64 // frame, rotors, battery, flight controller

	MaxThrustN      float64 // total motor thrust at full throttle
	RotorDiscAreaM2 float64 // summed propeller disc area (for hover power)
	OtherPowerW     float64 // ESC, radio, and other electronics

	ControllerHz float64   // PID inner loop rate (Table IV: 100 kHz commanded, 1 kHz closed loop)
	SensorFPS    []float64 // available RGB sensor frame rates
}

// BatteryJ returns the battery energy in joules, via the catalog's single
// battery-energy conversion.
func (p Platform) BatteryJ() float64 {
	return catalog.Battery{CapacitymAh: p.BatteryCapacitymAh, VoltageV: p.BatteryVoltage}.EnergyJ()
}

// TotalMassKg returns the all-up mass with a compute payload in grams.
func (p Platform) TotalMassKg(payloadG float64) float64 {
	return (p.BaseWeightG + payloadG) / 1000
}

// MaxAccelMS2 returns the maximum lateral acceleration with the payload,
// from the thrust-to-weight ratio: a = g·(T/(m·g) − 1). Zero means the
// platform cannot carry the payload.
func (p Platform) MaxAccelMS2(payloadG float64) float64 {
	m := p.TotalMassKg(payloadG)
	a := Gravity * (p.MaxThrustN/(m*Gravity) - 1)
	if a < 0 {
		return 0
	}
	return a
}

// CanLift reports whether the platform can hover with the payload with at
// least 15% thrust margin for control authority (the catalog's shared
// thrust-to-weight floor).
func (p Platform) CanLift(payloadG float64) bool {
	return catalog.LiftOK(p.MaxThrustN, p.TotalMassKg(payloadG))
}

// MaxSensorFPS returns the fastest available sensor mode.
func (p Platform) MaxSensorFPS() float64 {
	best := 0.0
	for _, f := range p.SensorFPS {
		if f > best {
			best = f
		}
	}
	return best
}

// Validate checks the platform definition.
func (p Platform) Validate() error {
	if p.BatteryCapacitymAh <= 0 || p.BatteryVoltage <= 0 || p.BaseWeightG <= 0 ||
		p.MaxThrustN <= 0 || p.RotorDiscAreaM2 <= 0 || len(p.SensorFPS) == 0 {
		return fmt.Errorf("uav: implausible platform %+v", p)
	}
	if !p.CanLift(0) {
		return fmt.Errorf("uav: %s cannot lift its own base weight", p.Name)
	}
	return nil
}

// ClassFromString resolves a catalog class name to the Table IV class.
func ClassFromString(s string) (Class, error) {
	switch s {
	case "mini":
		return Mini, nil
	case "micro":
		return Micro, nil
	case "nano":
		return Nano, nil
	default:
		return 0, fmt.Errorf("uav: unknown class %q", s)
	}
}

// FromLoadout materializes the legacy Platform view of a catalog loadout:
// the base weight is the loadout's (frame + battery + sensor), the battery
// is the loadout's pack, and everything else comes from the airframe. For
// the Table IV airframes with their default loadouts this reproduces the
// historical platforms bitwise.
func FromLoadout(lo catalog.Loadout) Platform {
	class, err := ClassFromString(lo.Airframe.Class)
	if err != nil {
		class = Nano // catalog entries validate their class; unreachable
	}
	return Platform{
		Name: lo.Airframe.Label, Class: class,
		BatteryCapacitymAh: lo.Battery.CapacitymAh, BatteryVoltage: lo.Battery.VoltageV,
		BaseWeightG: lo.BaseWeightG(),
		MaxThrustN:  lo.Airframe.MaxThrustN, RotorDiscAreaM2: lo.Airframe.RotorDiscAreaM2,
		OtherPowerW:  lo.Airframe.OtherPowerW,
		ControllerHz: lo.Airframe.ControllerHz,
		SensorFPS:    append([]float64(nil), lo.Airframe.SensorFPS...),
	}
}

// fromAirframe builds the default-loadout platform for a catalog airframe.
func fromAirframe(name string) Platform {
	lo, err := catalog.DefaultLoadout(name)
	if err != nil {
		panic(err) // the Table IV airframes are always in the catalog
	}
	return FromLoadout(lo)
}

// AscTecPelican is the mini-UAV (Table IV): 6250 mAh, 1650 g base weight.
func AscTecPelican() Platform { return fromAirframe("pelican") }

// DJISpark is the micro-UAV (Table IV): 1480 mAh, 300 g base weight.
func DJISpark() Platform { return fromAirframe("spark") }

// ZhangNano is the nano-UAV from Zhang et al. (Table IV): 500 mAh, 50 g base
// weight, high thrust-to-weight (the agile platform of Fig. 11).
func ZhangNano() Platform { return fromAirframe("nano") }

// Platforms returns the three Table IV UAVs in mini/micro/nano order.
func Platforms() []Platform {
	return []Platform{AscTecPelican(), DJISpark(), ZhangNano()}
}
