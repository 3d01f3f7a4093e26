package hw

import (
	"fmt"

	"autopilot/internal/cpu"
	"autopilot/internal/power"
	"autopilot/internal/systolic"
	"autopilot/internal/uav"
)

// SystolicBackend prices networks on the paper's systolic-array NPU
// template, through the SCALE-Sim-style analytical simulator plus the
// calibrated power model.
type SystolicBackend struct {
	Config systolic.Config
	Power  power.Model
}

// Estimate implements Backend.
func (b SystolicBackend) Estimate(w Workload) (Estimate, error) {
	if w.Kind != WorkloadNetwork {
		return Estimate{}, fmt.Errorf("hw: systolic backend cannot price %s workloads", w.Kind)
	}
	if w.Net == nil {
		return Estimate{}, fmt.Errorf("hw: network workload %q has no layer stack", w.Name)
	}
	rep, err := systolic.Simulate(w.Net, b.Config)
	if err != nil {
		return Estimate{}, fmt.Errorf("hw: simulate %q on %s: %w", w.Name, b.Config, err)
	}
	bd := b.Power.Accelerator(rep)
	return Estimate{
		FPS:         rep.FPS,
		RuntimeSec:  rep.RuntimeSec,
		AccelPowerW: bd.Total(),
		SoCPowerW:   power.SoCTotal(bd),
		Breakdown:   bd,
	}, nil
}

// BoardBackend prices networks on a fixed commercial compute board (Jetson
// TX2, Xavier NX, PULP-DroNet, Intel NCS): throughput follows from
// streaming the weight footprint at the board's sustained bandwidth (or the
// published pinned FPS), and the board is flown as-is, so its weight hint
// replaces the thermal-model payload.
type BoardBackend struct {
	Board uav.ComputeBaseline
}

// Estimate implements Backend. A network workload with no layer stack (no
// validated model for the scenario) prices at zero throughput.
func (b BoardBackend) Estimate(w Workload) (Estimate, error) {
	if w.Kind != WorkloadNetwork {
		return Estimate{}, fmt.Errorf("hw: board backend cannot price %s workloads", w.Kind)
	}
	est := Estimate{
		FPS:          b.Board.FPSFor(w.WeightBytes()),
		AccelPowerW:  b.Board.PowerW,
		SoCPowerW:    b.Board.PowerW + power.FixedComponentsW,
		FlownWeightG: b.Board.WeightG,
	}
	if est.FPS > 0 {
		est.RuntimeSec = 1 / est.FPS
	}
	return est, nil
}

// CPUBackend prices SPA workloads on an embedded multicore processor — the
// hardware template that replaces the systolic array when AutoPilot is
// instantiated for the SPA paradigm (paper §VII). A decision takes its
// measured op count at the CPU's sustained scalar throughput.
type CPUBackend struct {
	Config cpu.Config
	Power  cpu.PowerModel
}

// Name labels SPA pricing on this CPU operating point.
func (b CPUBackend) Name() string { return "spa+cpu:" + b.Config.String() }

// Estimate implements Backend.
func (b CPUBackend) Estimate(w Workload) (Estimate, error) {
	if err := b.Config.Validate(); err != nil {
		return Estimate{}, err
	}
	if w.Kind != WorkloadSPA {
		return Estimate{}, fmt.Errorf("hw: cpu backend cannot price %s workloads", w.Kind)
	}
	if w.OpsPerDecision <= 0 {
		return Estimate{}, fmt.Errorf("hw: spa workload %q has no op count", w.Name)
	}
	p := b.Power.Power(b.Config)
	est := Estimate{
		FPS:         b.Config.SustainedOpsPerSec() / w.OpsPerDecision,
		AccelPowerW: p,
		SoCPowerW:   p + power.FixedComponentsW,
	}
	est.RuntimeSec = 1 / est.FPS
	return est, nil
}
