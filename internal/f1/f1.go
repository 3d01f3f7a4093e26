// Package f1 implements the F-1 cyber-physical visual performance model
// (Krishnan et al., CAL '20 / ISPASS '22) that AutoPilot's Phase 3 uses: the
// relationship between a UAV's action throughput (the sensor→compute→control
// decision rate) and the maximum velocity at which it can fly safely.
//
// Two constraints bound the safe velocity:
//
//   - physics/safety: within the sensing range d the UAV must react (one
//     decision latency 1/f) and brake (v²/2a):  v/f + v²/(2a) ≤ d;
//   - obstacle density: in clutter the UAV needs a fresh decision at least
//     every Δ meters of travel:  v ≤ f·Δ, with Δ shrinking as obstacle
//     density grows.
//
// The curve rises along the f·Δ diagonal and flattens at the physics
// ceiling; the knee point — the minimum throughput that maximizes safe
// velocity — is where they intersect. Heavier compute payloads reduce the
// thrust-to-weight ratio, lowering a and hence the ceiling (Fig. 4).
package f1

import (
	"fmt"
	"math"

	"autopilot/internal/airlearning"
)

// Model is one F-1 curve family for a (sensing range, obstacle spacing)
// deployment context.
type Model struct {
	SenseRangeM      float64 // d: obstacle detection range of the RGB pipeline
	DecisionSpacingM float64 // Δ: travel budget per decision in this clutter
	MinCreepMS       float64 // v₀: crawl speed safe at any decision rate
}

// spacingK calibrates Δ = K/sqrt(density) so the nano-UAV knee in the dense
// scenario lands at the paper's ~46 Hz (Fig. 10b/11a); the Spark knee then
// falls at ~27 Hz from its own thrust-to-weight ratio.
const spacingK = 0.05293

// defaultSenseRange is the RGB obstacle-detection range in meters.
const defaultSenseRange = 2.5

// defaultCreep is the minimum crawl speed: even a slow decision pipeline can
// inch between obstacles.
const defaultCreep = 1.5

// ForScenario returns the F-1 model for a deployment scenario, deriving the
// decision spacing from the scenario's obstacle density.
func ForScenario(s airlearning.Scenario) Model {
	return Model{
		SenseRangeM:      defaultSenseRange,
		DecisionSpacingM: spacingK / math.Sqrt(s.ObstacleDensity()),
		MinCreepMS:       defaultCreep,
	}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.SenseRangeM <= 0 || m.DecisionSpacingM <= 0 || m.MinCreepMS < 0 {
		return fmt.Errorf("f1: implausible model %+v", m)
	}
	return nil
}

// PhysicsVelocity returns the largest v satisfying v/f + v²/(2a) ≤ d: the
// solution of the stopping-distance constraint at decision latency 1/f.
func (m Model) PhysicsVelocity(throughputHz, accelMS2 float64) float64 {
	if throughputHz <= 0 || accelMS2 <= 0 {
		return 0
	}
	t := 1 / throughputHz
	return accelMS2 * (-t + math.Sqrt(t*t+2*m.SenseRangeM/accelMS2))
}

// CeilingVelocity returns the physics asymptote sqrt(2·a·d): the best any
// throughput can achieve at this acceleration.
func (m Model) CeilingVelocity(accelMS2 float64) float64 {
	if accelMS2 <= 0 {
		return 0
	}
	return math.Sqrt(2 * accelMS2 * m.SenseRangeM)
}

// SafeVelocity returns V_safe at the given action throughput and maximum
// acceleration: min(f·Δ, physics).
func (m Model) SafeVelocity(throughputHz, accelMS2 float64) float64 {
	if throughputHz <= 0 || accelMS2 <= 0 {
		return 0
	}
	diag := m.MinCreepMS + throughputHz*m.DecisionSpacingM
	phys := m.PhysicsVelocity(throughputHz, accelMS2)
	return math.Min(diag, phys)
}

// KneePoint returns the minimum action throughput that maximizes safe
// velocity: the intersection of the f·Δ diagonal with the physics curve,
// found by bisection.
func (m Model) KneePoint(accelMS2 float64) float64 {
	if accelMS2 <= 0 {
		return 0
	}
	f := func(x float64) float64 {
		return m.MinCreepMS + x*m.DecisionSpacingM - m.PhysicsVelocity(x, accelMS2)
	}
	// The diagonal starts above the physics curve (the creep offset), dips
	// below it once latency stops mattering, and overtakes it again at the
	// knee. Scan geometrically for a point inside the dip, then bisect the
	// upper crossing.
	const hi = 1e5
	lo := -1.0
	for x := 0.5; x < hi; x *= 1.5 {
		if f(x) < 0 {
			lo = x
			break
		}
	}
	if lo < 0 {
		// No dip: clutter is so dense the diagonal binds everywhere. The
		// knee degenerates to the throughput where physics reaches ~99% of
		// its ceiling.
		target := 0.99 * m.CeilingVelocity(accelMS2)
		x := 0.5
		for x < hi && m.PhysicsVelocity(x, accelMS2) < target {
			x *= 1.01
		}
		return x
	}
	a, b := lo, hi
	for i := 0; i < 200; i++ {
		mid := 0.5 * (a + b)
		if f(mid) < 0 {
			a = mid
		} else {
			b = mid
		}
	}
	return 0.5 * (a + b)
}

// Provisioning classifies a design's action throughput against the knee.
type Provisioning int

// Provisioning classes (paper Fig. 4b: designs 'X', 'O', 'A').
const (
	UnderProvisioned Provisioning = iota
	Balanced
	OverProvisioned
)

// String names the provisioning class.
func (p Provisioning) String() string {
	switch p {
	case UnderProvisioned:
		return "under-provisioned"
	case Balanced:
		return "balanced"
	case OverProvisioned:
		return "over-provisioned"
	default:
		return fmt.Sprintf("Provisioning(%d)", int(p))
	}
}

// Classify labels a throughput relative to the knee: within [90%, 140%] of
// the knee counts as balanced.
func (m Model) Classify(throughputHz, accelMS2 float64) Provisioning {
	knee := m.KneePoint(accelMS2)
	switch {
	case throughputHz < 0.9*knee:
		return UnderProvisioned
	case throughputHz > 1.4*knee:
		return OverProvisioned
	default:
		return Balanced
	}
}

// Bound identifies which stage limits the pipeline (paper §III-C: the F-1
// model shows whether a UAV is sensor-, compute- or physics-bound).
type Bound int

// Pipeline bounds.
const (
	ComputeBound Bound = iota
	SensorBound
	PhysicsBound
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case ComputeBound:
		return "compute-bound"
	case SensorBound:
		return "sensor-bound"
	case PhysicsBound:
		return "physics-bound"
	default:
		return fmt.Sprintf("Bound(%d)", int(b))
	}
}

// EffectiveThroughput returns the pipeline's action throughput — the
// slowest of compute and sensor rates — and which stage binds. When the
// combined rate exceeds the knee, the platform physics is the limiter.
func (m Model) EffectiveThroughput(computeFPS, sensorFPS, accelMS2 float64) (float64, Bound) {
	f := math.Min(computeFPS, sensorFPS)
	knee := m.KneePoint(accelMS2)
	switch {
	case f >= knee:
		return f, PhysicsBound
	case sensorFPS < computeFPS:
		return f, SensorBound
	default:
		return f, ComputeBound
	}
}

// Point is one sample of the F-1 curve.
type Point struct {
	ThroughputHz float64
	VSafeMS      float64
}

// Curve samples the F-1 roofline for plotting, from ~0 to maxHz.
func (m Model) Curve(accelMS2, maxHz float64, n int) []Point {
	if n < 2 {
		n = 2
	}
	pts := make([]Point, n)
	for i := range pts {
		f := maxHz * float64(i+1) / float64(n)
		pts[i] = Point{ThroughputHz: f, VSafeMS: m.SafeVelocity(f, accelMS2)}
	}
	return pts
}
