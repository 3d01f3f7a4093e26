// Nano co-design walkthrough: runs each AutoPilot phase separately for the
// nano-UAV in the dense-obstacle scenario, showing what every stage
// produces — including a small *real* RL training run on the grid-world
// simulator (Phase 1), the Phase-2 Pareto frontier, the F-1 roofline with
// the selected operating point, and the comparison against conventional
// picks and general-purpose baselines.
//
// Run with:
//
//	go run ./examples/nano_codesign
package main

import (
	"context"
	"fmt"
	"log"

	"autopilot/internal/airlearning"
	"autopilot/internal/core"
	"autopilot/internal/plot"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/uav"
)

func main() {
	ctx := context.Background()
	spec := core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)

	// ---- Phase 1: train and validate E2E policies -------------------------
	fmt.Println("Phase 1: domain-specific front end")
	fmt.Println("  training one small policy for real on the grid-world simulator...")
	rec, _, err := rl.Engine(
		rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 60, EvalEpisodes: 20, Seed: 7},
	).Train(ctx, policy.Hyper{Layers: 2, Filters: 32}, airlearning.DenseObstacle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  trained %s: %.0f%% success after %d env steps\n",
		rec.Hyper, 100*rec.SuccessRate, rec.TrainSteps)

	db, err := core.Phase1(ctx, spec) // full family via the calibrated surrogate
	if err != nil {
		log.Fatal(err)
	}
	best, _ := db.Best(spec.Scenario)
	fmt.Printf("  database: %d validated policies; best for %s is %s (%.0f%%)\n\n",
		db.Len(), spec.Scenario, best.Hyper, 100*best.SuccessRate)

	// ---- Phase 2: multi-objective HW-SW co-design -------------------------
	fmt.Println("Phase 2: domain-agnostic multi-objective DSE (SMS-EGO Bayesian optimization)")
	res, err := core.Phase2(ctx, spec, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  evaluated %d of %d candidate designs; Pareto front holds %d\n",
		len(res.Evaluated), spec.Phase2.CandidatePool, len(res.ParetoIdx))
	fmt.Println("  sample of the frontier:")
	for i, e := range res.Pareto() {
		if i >= 5 {
			break
		}
		fmt.Printf("    %-44s %6.1f FPS %6.2f W\n", e.Design, e.FPS, e.SoCPowerW)
	}
	fmt.Println()

	// ---- Phase 3: domain-specific back end --------------------------------
	fmt.Println("Phase 3: full-system UAV co-design with the F-1 model")
	rep, err := core.Phase3(ctx, spec, res)
	if err != nil {
		log.Fatal(err)
	}
	rep.Database = db
	sel := rep.Selected

	accel := spec.Platform.MaxAccelMS2(sel.PayloadG)
	chart := plot.New("  F-1 roofline with the selected design", "action throughput (Hz)", "safe velocity (m/s)")
	pts := rep.F1.Curve(accel, 120, 60)
	xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.ThroughputHz, p.VSafeMS
	}
	chart.AddLine("v_safe", xs, ys)
	chart.AddPoint("knee", sel.KneeHz, rep.F1.SafeVelocity(sel.KneeHz, accel), 'K')
	chart.AddPoint("selected", sel.ActionHz, sel.VSafeMS, 'A')
	fmt.Print(chart)

	fmt.Printf("\n  selected: %s", sel.Design.Design)
	if sel.Tuned != "" {
		fmt.Printf("  (fine-tuned: %s)", sel.Tuned)
	}
	fmt.Printf("\n  %.1f FPS @ %.2f W, %.1f g payload -> %.2f missions per charge\n\n",
		sel.Design.FPS, sel.Design.SoCPowerW, sel.PayloadG, sel.Missions())

	fmt.Println("Conventional picks on the same UAV:")
	for _, alt := range []struct {
		name string
		s    core.Selection
	}{{"high-throughput", rep.HT}, {"low-power", rep.LP}, {"high-efficiency", rep.HE}} {
		fmt.Printf("  %-16s %6.2f missions (AutoPilot gain %.2fx)\n",
			alt.name, alt.s.Missions(), core.MissionGain(sel, alt.s))
	}
	fmt.Println("General-purpose baselines:")
	for _, b := range uav.Baselines() {
		bs := core.EvaluateBaseline(spec, db, b)
		fmt.Printf("  %-16s %6.2f missions (AutoPilot gain %.2fx)\n",
			b.Label, bs.Missions(), core.MissionGain(sel, bs))
	}
}
