// Package hw is the unified hardware cost-model layer: one seam between
// AutoPilot's search phases and the compute hardware they evaluate (paper
// §VII — the methodology is backend-agnostic; AutoSoC generalizes the same
// loop across algorithm/SoC pairs). A Workload lowers either an E2E policy
// network or an SPA stage op-count into one representation, a Backend turns
// a Workload into an Estimate — latency/FPS, power breakdown and a
// flown-weight hint — and every consumer (Phase-2 DSE, Phase-3 full-system
// evaluation, baseline comparisons) scores hardware exclusively through this
// interface. Adding a new accelerator template or autonomy workload means
// adding one Backend or one Workload constructor; the F-1/mission back end
// is untouched.
package hw

import (
	"fmt"

	"autopilot/internal/policy"
	"autopilot/internal/power"
)

// WorkloadKind discriminates the autonomy-paradigm representation a
// workload carries.
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadNetwork is an E2E policy network: a layer stack the systolic
	// backend lowers to GEMMs and a board backend streams as weights.
	WorkloadNetwork WorkloadKind = iota
	// WorkloadSPA is a Sense-Plan-Act pipeline characterized by its mean
	// scalar operations per decision.
	WorkloadSPA
)

// String names the kind.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadNetwork:
		return "network"
	case WorkloadSPA:
		return "spa"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// Workload is the backend-agnostic unit of autonomy compute: one inference
// (E2E) or one decision (SPA).
type Workload struct {
	Name string
	Kind WorkloadKind

	// Net is the layer stack for WorkloadNetwork.
	Net *policy.Network
	// OpsPerDecision is the mean scalar work for WorkloadSPA.
	OpsPerDecision float64
}

// NetworkWorkload lowers an E2E policy network into a workload.
func NetworkWorkload(name string, net *policy.Network) Workload {
	return Workload{Name: name, Kind: WorkloadNetwork, Net: net}
}

// SPAWorkload lowers a Sense-Plan-Act pipeline's measured per-decision
// operation count into a workload.
func SPAWorkload(name string, opsPerDecision float64) Workload {
	return Workload{Name: name, Kind: WorkloadSPA, OpsPerDecision: opsPerDecision}
}

// WeightBytes returns the model's weight footprint in bytes (int8 weights,
// one byte per parameter) — what bandwidth-bound boards stream per frame.
// SPA workloads and unknown models have no weight footprint.
func (w Workload) WeightBytes() int64 {
	if w.Kind != WorkloadNetwork || w.Net == nil {
		return 0
	}
	return w.Net.Params()
}

// Estimate is the common cost-model output every backend returns: what
// Phase 2 scores and what the Phase-3 full-system path maps onto the F-1
// roofline and the mission model.
type Estimate struct {
	FPS        float64 // inferences (decisions) per second
	RuntimeSec float64 // latency of one inference

	AccelPowerW float64         // compute-unit power (accelerator, board, CPU)
	SoCPowerW   float64         // AccelPowerW plus the fixed Table III components
	Breakdown   power.Breakdown // itemized accelerator power; zero if the backend cannot itemize

	// FlownWeightG is the flown mass hint: boards flown as-is report their
	// module+carrier+cooling weight here; 0 means the consumer derives the
	// payload from the thermal model and the accelerator TDP.
	FlownWeightG float64
}

// Backend estimates the cost of running a workload on one hardware
// configuration. Implementations must be deterministic pure functions of the
// workload, so an estimate is bit-identical however often and wherever it is
// computed.
type Backend interface {
	Estimate(Workload) (Estimate, error)
}
