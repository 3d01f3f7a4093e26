// Package catalog is the typed component catalog the full-vehicle co-design
// layer searches over: real batteries, camera sensors, compute boards, and
// airframes, each validated on its own terms, composed into a Loadout with a
// single SWaP feasibility check (structural payload budget, thrust-to-weight
// floor, battery discharge limit). It is the base vehicle layer — internal/uav
// platforms, internal/mission's energy model, and the dse vehicle axes are all
// thin views over these entries, so the weight, thrust, and battery-energy
// arithmetic lives in exactly one place.
package catalog

import (
	"fmt"
	"sort"
)

// Gravity is standard gravitational acceleration (m/s²).
const Gravity = 9.81

// ThrustMarginFloor is the minimum thrust-to-weight ratio for control
// authority: a loadout must hover with at least 15% thrust margin.
const ThrustMarginFloor = 1.15

// LiftOK reports whether thrustN can lift massKg with the thrust-to-weight
// floor — the one lift inequality uav.Platform.CanLift and the Loadout
// feasibility check share.
func LiftOK(thrustN, massKg float64) bool {
	return thrustN >= ThrustMarginFloor*massKg*Gravity
}

// Battery is one LiPo pack. EnergyJ is the single battery-energy conversion
// every consumer (uav.Platform.BatteryJ, the mission model) routes through.
type Battery struct {
	Name          string // catalog key, e.g. "lipo-3s-6250"
	Label         string // display name
	CapacitymAh   float64
	VoltageV      float64
	WeightG       float64
	MaxDischargeW float64 // continuous discharge limit; 0 = unlimited
}

// EnergyJ returns the rated pack energy in joules.
func (b Battery) EnergyJ() float64 {
	return b.CapacitymAh / 1000 * b.VoltageV * 3600
}

// Validate checks the pack definition.
func (b Battery) Validate() error {
	if b.Name == "" || b.CapacitymAh <= 0 || b.VoltageV <= 0 || b.WeightG <= 0 {
		return fmt.Errorf("catalog: implausible battery %+v", b)
	}
	if b.MaxDischargeW < 0 {
		return fmt.Errorf("catalog: negative discharge limit on battery %s", b.Name)
	}
	return nil
}

// SensorMode is one (resolution, frame-rate) operating point.
type SensorMode struct {
	Width, Height int
	FPS           float64
}

// Sensor is an onboard camera.
type Sensor struct {
	Name    string
	Label   string
	PowerW  float64
	WeightG float64
	Modes   []SensorMode
}

// MaxFPS returns the fastest mode's frame rate.
func (s Sensor) MaxFPS() float64 {
	best := 0.0
	for _, m := range s.Modes {
		if m.FPS > best {
			best = m.FPS
		}
	}
	return best
}

// Validate checks the sensor definition.
func (s Sensor) Validate() error {
	if s.Name == "" || s.PowerW <= 0 || s.WeightG <= 0 || len(s.Modes) == 0 {
		return fmt.Errorf("catalog: implausible sensor %+v", s)
	}
	for _, m := range s.Modes {
		if m.Width <= 0 || m.Height <= 0 || m.FPS <= 0 {
			return fmt.Errorf("catalog: sensor %s has implausible mode %+v", s.Name, m)
		}
	}
	return nil
}

// ComputeBoard is a fixed compute platform flown as-is. Throughput on a
// model is characterized by a sustained weight-streaming bandwidth unless the
// board's published FPS is pinned (PULP-DroNet).
type ComputeBoard struct {
	Name            string
	Label           string
	PowerW          float64
	WeightG         float64
	SustainedGBps   float64
	PinnedFPS       float64
	NeedsActiveCool bool
}

// FPSFor returns the achievable inference rate for a model with the given
// weight footprint in bytes. This holds the shared degenerate-model guard:
// a non-positive footprint yields 0 FPS, never +Inf.
func (b ComputeBoard) FPSFor(modelWeightBytes int64) float64 {
	if b.PinnedFPS > 0 {
		return b.PinnedFPS
	}
	if modelWeightBytes <= 0 {
		return 0
	}
	return b.SustainedGBps * 1e9 / float64(modelWeightBytes)
}

// Validate checks the board definition — the single validation boards and
// uav.ComputeBaseline views share.
func (b ComputeBoard) Validate() error {
	if b.PowerW <= 0 || b.WeightG <= 0 || (b.SustainedGBps <= 0 && b.PinnedFPS <= 0) {
		return fmt.Errorf("catalog: implausible board %+v", b)
	}
	return nil
}

// Airframe is a bare vehicle: frame, rotors, motors, and flight controller,
// without the battery and sensor (those are separate catalog picks).
type Airframe struct {
	Name            string
	Label           string
	Class           string // "mini", "micro", or "nano"
	FrameWeightG    float64
	MaxThrustN      float64
	RotorDiscAreaM2 float64
	OtherPowerW     float64 // ESC, radio, and other electronics
	ControllerHz    float64
	SensorFPS       []float64 // sensor frame rates the flight stack supports
	MaxPayloadG     float64   // structural payload budget beyond the base loadout
	DefaultBattery  string
	DefaultSensor   string
}

// Validate checks the airframe definition.
func (a Airframe) Validate() error {
	if a.Name == "" || a.FrameWeightG <= 0 || a.MaxThrustN <= 0 ||
		a.RotorDiscAreaM2 <= 0 || len(a.SensorFPS) == 0 {
		return fmt.Errorf("catalog: implausible airframe %+v", a)
	}
	switch a.Class {
	case "mini", "micro", "nano":
	default:
		return fmt.Errorf("catalog: airframe %s has unknown class %q", a.Name, a.Class)
	}
	if a.DefaultBattery == "" || a.DefaultSensor == "" {
		return fmt.Errorf("catalog: airframe %s missing default battery/sensor", a.Name)
	}
	return nil
}

// InfeasibleReason classifies why a loadout cannot fly.
type InfeasibleReason string

// Feasibility failure classes.
const (
	ReasonWeight InfeasibleReason = "weight" // payload over the structural budget
	ReasonThrust InfeasibleReason = "thrust" // under the thrust-to-weight floor
	ReasonPower  InfeasibleReason = "power"  // draw over the battery discharge limit
)

// InfeasibleError is the typed verdict of a failed feasibility check. Sweeps
// treat it as a skip, not a failure: an infeasible loadout is a legitimate
// answer about the design space, not a fault.
type InfeasibleError struct {
	Loadout string
	Reason  InfeasibleReason
	Detail  string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("catalog: infeasible loadout %s: %s (%s)", e.Loadout, e.Reason, e.Detail)
}

// Loadout composes one airframe, battery, and sensor into a flyable vehicle.
type Loadout struct {
	Airframe Airframe
	Battery  Battery
	Sensor   Sensor
}

// String renders the loadout as its catalog keys.
func (l Loadout) String() string {
	return l.Airframe.Name + "/" + l.Battery.Name + "/" + l.Sensor.Name
}

// BaseWeightG returns the loadout weight before the compute payload.
func (l Loadout) BaseWeightG() float64 {
	return l.Airframe.FrameWeightG + l.Battery.WeightG + l.Sensor.WeightG
}

// TotalMassKg returns the all-up mass with a compute payload in grams.
func (l Loadout) TotalMassKg(payloadG float64) float64 {
	return (l.BaseWeightG() + payloadG) / 1000
}

// MaxAccelMS2 returns the maximum lateral acceleration with the payload,
// from the thrust-to-weight ratio: a = g·(T/(m·g) − 1). Zero means the
// loadout cannot carry the payload.
func (l Loadout) MaxAccelMS2(payloadG float64) float64 {
	m := l.TotalMassKg(payloadG)
	a := Gravity * (l.Airframe.MaxThrustN/(m*Gravity) - 1)
	if a < 0 {
		return 0
	}
	return a
}

// FeasibleWeight checks the structural payload budget and the
// thrust-to-weight floor for a compute payload.
func (l Loadout) FeasibleWeight(payloadG float64) error {
	if l.Airframe.MaxPayloadG > 0 && payloadG > l.Airframe.MaxPayloadG {
		return &InfeasibleError{Loadout: l.String(), Reason: ReasonWeight,
			Detail: fmt.Sprintf("payload %.0f g over the %.0f g budget", payloadG, l.Airframe.MaxPayloadG)}
	}
	if !LiftOK(l.Airframe.MaxThrustN, l.TotalMassKg(payloadG)) {
		return &InfeasibleError{Loadout: l.String(), Reason: ReasonThrust,
			Detail: fmt.Sprintf("%.1f N thrust under the %.0f%% margin at %.0f g all-up",
				l.Airframe.MaxThrustN, (ThrustMarginFloor-1)*100, l.BaseWeightG()+payloadG)}
	}
	return nil
}

// Feasible is the single full feasibility check: the structural payload
// budget, the thrust-to-weight floor, and the battery discharge limit
// against the total electrical draw.
func (l Loadout) Feasible(payloadG, drawW float64) error {
	if err := l.FeasibleWeight(payloadG); err != nil {
		return err
	}
	if l.Battery.MaxDischargeW > 0 && drawW > l.Battery.MaxDischargeW {
		return &InfeasibleError{Loadout: l.String(), Reason: ReasonPower,
			Detail: fmt.Sprintf("%.1f W draw over the %.0f W discharge limit", drawW, l.Battery.MaxDischargeW)}
	}
	return nil
}

// Validate checks every component and that the bare loadout can lift itself.
func (l Loadout) Validate() error {
	if err := l.Airframe.Validate(); err != nil {
		return err
	}
	if err := l.Battery.Validate(); err != nil {
		return err
	}
	if err := l.Sensor.Validate(); err != nil {
		return err
	}
	return nil
}

// batteries is the catalog of LiPo packs, keyed by name. The three default
// packs reproduce the Table IV platform batteries bitwise: capacity, voltage,
// and a weight that sums with the airframe and sensor to the legacy base
// weight exactly (integer grams, so float64 addition is exact).
var batteries = map[string]Battery{
	"lipo-1s-250":   {Name: "lipo-1s-250", Label: "1S 250 mAh LiPo", CapacitymAh: 250, VoltageV: 3.7, WeightG: 6, MaxDischargeW: 14},
	"lipo-1s-500":   {Name: "lipo-1s-500", Label: "1S 500 mAh LiPo", CapacitymAh: 500, VoltageV: 3.7, WeightG: 10, MaxDischargeW: 80},
	"lipo-1s-750":   {Name: "lipo-1s-750", Label: "1S 750 mAh LiPo", CapacitymAh: 750, VoltageV: 3.7, WeightG: 15, MaxDischargeW: 85},
	"lipo-2s-1100":  {Name: "lipo-2s-1100", Label: "2S 1100 mAh LiPo", CapacitymAh: 1100, VoltageV: 7.4, WeightG: 55, MaxDischargeW: 120},
	"lipo-3s-1480":  {Name: "lipo-3s-1480", Label: "3S 1480 mAh LiPo", CapacitymAh: 1480, VoltageV: 11.4, WeightG: 90, MaxDischargeW: 220},
	"lipo-3s-2300":  {Name: "lipo-3s-2300", Label: "3S 2300 mAh LiPo", CapacitymAh: 2300, VoltageV: 11.1, WeightG: 160, MaxDischargeW: 280},
	"lipo-3s-6250":  {Name: "lipo-3s-6250", Label: "3S 6250 mAh LiPo", CapacitymAh: 6250, VoltageV: 11.1, WeightG: 470, MaxDischargeW: 650},
	"lipo-6s-10000": {Name: "lipo-6s-10000", Label: "6S 10000 mAh LiPo", CapacitymAh: 10000, VoltageV: 22.2, WeightG: 1300, MaxDischargeW: 1800},
}

// sensors is the catalog of cameras. "ov9755" is the paper's Table III
// sensor; the others trade frame rate against power.
var sensors = map[string]Sensor{
	"ov9755": {Name: "ov9755", Label: "OV9755", PowerW: 0.100, WeightG: 1.0,
		Modes: []SensorMode{
			{Width: 1280, Height: 720, FPS: 30},
			{Width: 1280, Height: 720, FPS: 60},
			{Width: 640, Height: 480, FPS: 90},
		}},
	"lowlight-vga": {Name: "lowlight-vga", Label: "Low-light VGA", PowerW: 0.055, WeightG: 0.8,
		Modes: []SensorMode{
			{Width: 640, Height: 480, FPS: 30},
			{Width: 640, Height: 480, FPS: 45},
		}},
	"gs-wvga-120": {Name: "gs-wvga-120", Label: "Global-shutter WVGA", PowerW: 0.240, WeightG: 2.5,
		Modes: []SensorMode{
			{Width: 752, Height: 480, FPS: 60},
			{Width: 752, Height: 480, FPS: 120},
		}},
}

// boards is the catalog of fixed compute platforms — the baseline boards the
// paper compares against (uav.ComputeBaseline is a view over these entries).
var boards = map[string]ComputeBoard{
	"jetson-tx2":  {Name: "jetson-tx2", Label: "Jetson TX2", PowerW: 12, WeightG: 185, SustainedGBps: 3.0, NeedsActiveCool: true},
	"xavier-nx":   {Name: "xavier-nx", Label: "Xavier NX", PowerW: 15, WeightG: 150, SustainedGBps: 4.5, NeedsActiveCool: true},
	"pulp-dronet": {Name: "pulp-dronet", Label: "PULP-DroNet", PowerW: 0.064, WeightG: 5, PinnedFPS: 6},
	"intel-ncs":   {Name: "intel-ncs", Label: "Intel NCS", PowerW: 1.2, WeightG: 30, SustainedGBps: 0.45},
}

// airframes is the catalog of bare vehicles. The frame weights are chosen so
// frame + default battery + default sensor reproduces the Table IV base
// weights exactly (1650 / 300 / 50 g).
var airframes = map[string]Airframe{
	"pelican": {Name: "pelican", Label: "AscTec Pelican", Class: "mini",
		FrameWeightG: 1179, MaxThrustN: 32.4, RotorDiscAreaM2: 0.203,
		OtherPowerW: 2.0, ControllerHz: 1000, SensorFPS: []float64{30, 60},
		MaxPayloadG: 1500, DefaultBattery: "lipo-3s-6250", DefaultSensor: "ov9755"},
	"spark": {Name: "spark", Label: "DJI Spark", Class: "micro",
		FrameWeightG: 209, MaxThrustN: 7.05, RotorDiscAreaM2: 0.0182,
		OtherPowerW: 0.8, ControllerHz: 1000, SensorFPS: []float64{30, 60},
		MaxPayloadG: 400, DefaultBattery: "lipo-3s-1480", DefaultSensor: "ov9755"},
	"quadx-250": {Name: "quadx-250", Label: "250-class racer", Class: "micro",
		FrameWeightG: 95, MaxThrustN: 9.8, RotorDiscAreaM2: 0.019,
		OtherPowerW: 0.5, ControllerHz: 1000, SensorFPS: []float64{30, 60},
		MaxPayloadG: 300, DefaultBattery: "lipo-3s-1480", DefaultSensor: "ov9755"},
	"nano": {Name: "nano", Label: "Zhang et al. nano", Class: "nano",
		FrameWeightG: 39, MaxThrustN: 2.9, RotorDiscAreaM2: 0.00665,
		OtherPowerW: 0.15, ControllerHz: 1000, SensorFPS: []float64{30, 60},
		MaxPayloadG: 250, DefaultBattery: "lipo-1s-500", DefaultSensor: "ov9755"},
}

// sortedKeys returns map keys sorted, so every listing is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BatteryNames lists the catalog battery keys, sorted.
func BatteryNames() []string { return sortedKeys(batteries) }

// SensorNames lists the catalog sensor keys, sorted.
func SensorNames() []string { return sortedKeys(sensors) }

// BoardNames lists the catalog board keys, sorted.
func BoardNames() []string { return sortedKeys(boards) }

// AirframeNames lists the catalog airframe keys, sorted.
func AirframeNames() []string { return sortedKeys(airframes) }

// BatteryByName resolves a battery catalog key.
func BatteryByName(name string) (Battery, error) {
	b, ok := batteries[name]
	if !ok {
		return Battery{}, fmt.Errorf("catalog: unknown battery %q (have %v)", name, BatteryNames())
	}
	return b, nil
}

// SensorByName resolves a sensor catalog key.
func SensorByName(name string) (Sensor, error) {
	s, ok := sensors[name]
	if !ok {
		return Sensor{}, fmt.Errorf("catalog: unknown sensor %q (have %v)", name, SensorNames())
	}
	return s, nil
}

// BoardByName resolves a board catalog key.
func BoardByName(name string) (ComputeBoard, error) {
	b, ok := boards[name]
	if !ok {
		return ComputeBoard{}, fmt.Errorf("catalog: unknown board %q (have %v)", name, BoardNames())
	}
	return b, nil
}

// AirframeByName resolves an airframe catalog key.
func AirframeByName(name string) (Airframe, error) {
	a, ok := airframes[name]
	if !ok {
		return Airframe{}, fmt.Errorf("catalog: unknown airframe %q (have %v)", name, AirframeNames())
	}
	return a, nil
}

// Batteries returns every catalog battery in name order.
func Batteries() []Battery {
	out := make([]Battery, 0, len(batteries))
	for _, k := range BatteryNames() {
		out = append(out, batteries[k])
	}
	return out
}

// Sensors returns every catalog sensor in name order.
func Sensors() []Sensor {
	out := make([]Sensor, 0, len(sensors))
	for _, k := range SensorNames() {
		out = append(out, sensors[k])
	}
	return out
}

// Boards returns every catalog board in name order.
func Boards() []ComputeBoard {
	out := make([]ComputeBoard, 0, len(boards))
	for _, k := range BoardNames() {
		out = append(out, boards[k])
	}
	return out
}

// Airframes returns every catalog airframe in name order.
func Airframes() []Airframe {
	out := make([]Airframe, 0, len(airframes))
	for _, k := range AirframeNames() {
		out = append(out, airframes[k])
	}
	return out
}

// BuildLoadout composes a loadout from catalog keys. Empty battery/sensor
// names select the airframe's defaults.
func BuildLoadout(airframe, battery, sensor string) (Loadout, error) {
	a, err := AirframeByName(airframe)
	if err != nil {
		return Loadout{}, err
	}
	if battery == "" {
		battery = a.DefaultBattery
	}
	if sensor == "" {
		sensor = a.DefaultSensor
	}
	b, err := BatteryByName(battery)
	if err != nil {
		return Loadout{}, err
	}
	s, err := SensorByName(sensor)
	if err != nil {
		return Loadout{}, err
	}
	return Loadout{Airframe: a, Battery: b, Sensor: s}, nil
}

// DefaultLoadout returns an airframe with its default battery and sensor —
// for the three Table IV airframes, exactly the legacy uav.Platform.
func DefaultLoadout(airframe string) (Loadout, error) {
	return BuildLoadout(airframe, "", "")
}
