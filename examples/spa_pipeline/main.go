// SPA pipeline extension (paper §VII): runs the Sense-Plan-Act autonomy
// stack — occupancy-grid mapping, A* planning, waypoint control — on the
// same domain-randomized environments as the E2E policies, validates its
// task success, and converts its measured per-decision compute work into an
// F-1 action throughput to show how the AutoPilot back end evaluates SPA
// designs too.
//
// Run with:
//
//	go run ./examples/spa_pipeline
package main

import (
	"fmt"

	"autopilot/internal/airlearning"
	"autopilot/internal/core"
	"autopilot/internal/cpu"
	"autopilot/internal/f1"
	"autopilot/internal/hw"
	"autopilot/internal/spa"
	"autopilot/internal/thermal"
	"autopilot/internal/uav"
)

func main() {
	fmt.Println("Sense-Plan-Act autonomy on the domain-randomized navigation task")
	fmt.Println()
	fmt.Printf("%-16s %8s %10s %12s %9s\n", "scenario", "success", "steps/ep", "ops/decision", "replans")

	opsPerDecision := map[airlearning.Scenario]float64{}
	success := map[airlearning.Scenario]float64{}
	for _, scen := range airlearning.Scenarios {
		st := spa.Measure(scen, 25, 42)
		opsPerDecision[scen] = st.OpsPerDecision
		success[scen] = st.SuccessRate
		fmt.Printf("%-16s %7.0f%% %10.1f %12.0f %9.1f\n",
			scen, 100*st.SuccessRate, st.StepsPerEpisode,
			st.OpsPerDecision, st.ReplansPerEpisode)
	}

	// Map the SPA compute requirement onto the F-1 model: how many ops/s
	// must the onboard computer sustain for the nano-UAV to stay at its
	// knee point in each scenario?
	fmt.Println()
	fmt.Println("required sustained compute for the nano-UAV to reach its F-1 knee:")
	nano := uav.ZhangNano()
	payload := thermal.Default().ComputeWeightGrams(0.7)
	for _, scen := range airlearning.Scenarios {
		model := f1.ForScenario(scen)
		knee := model.KneePoint(nano.MaxAccelMS2(payload))
		ops := opsPerDecision[scen]
		fmt.Printf("  %-16s knee %5.1f Hz x %6.0f ops/decision = %.2f Mops/s\n",
			scen, knee, ops, knee*ops/1e6)
	}
	// Pick the cheapest embedded CPU from the catalog that reaches the knee —
	// the SPA analogue of Phase 3's knee-point selection.
	fmt.Println()
	fmt.Println("cheapest catalog CPU reaching the dense-obstacle knee:")
	pm := cpu.DefaultPowerModel()
	dense := f1.ForScenario(airlearning.DenseObstacle)
	knee := dense.KneePoint(nano.MaxAccelMS2(payload))
	sel, err := cpu.SelectForKnee(opsPerDecision[airlearning.DenseObstacle], knee, pm)
	if err != nil {
		fmt.Println("  none:", err)
	} else {
		fmt.Printf("  %s -> %.0f Hz at %.2f W\n",
			sel, sel.ActionHz(opsPerDecision[airlearning.DenseObstacle]), pm.Power(sel))
	}

	// The same SPA op-count, lowered into the unified hardware cost-model
	// layer: an hw.SPAWorkload priced on every catalog CPU and run through
	// the full-system (F-1 + mission) path the systolic designs use.
	fmt.Println()
	fmt.Println("SPA workload through the hw cost-model layer (nano-UAV, dense):")
	wl := hw.SPAWorkload("spa/dense", opsPerDecision[airlearning.DenseObstacle])
	spec := core.DefaultSpec(nano, airlearning.DenseObstacle)
	fmt.Printf("  %-28s %10s %8s %9s %9s\n", "backend", "action Hz", "SoC W", "v_safe", "missions")
	for _, c := range cpu.Catalog() {
		be := hw.CPUBackend{Config: c, Power: pm}
		est, err := be.Estimate(wl)
		if err != nil {
			fmt.Printf("  %-28s %v\n", be.Name(), err)
			continue
		}
		full := core.EvaluateEstimate(spec, est, success[airlearning.DenseObstacle], dense)
		fmt.Printf("  %-28s %10.1f %8.2f %9.2f %9.2f\n",
			be.Name(), full.ActionHz, full.Design.SoCPowerW, full.VSafeMS, full.Missions())
	}

	fmt.Println()
	fmt.Println("per the paper's taxonomy, a MAVBench-style simulator would replace Air")
	fmt.Println("Learning in Phase 1 and SLAM/planning accelerator templates would replace")
	fmt.Println("the systolic array in Phase 2; the F-1 back end is unchanged.")
}
