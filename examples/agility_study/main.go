// Agility study (paper §V-C, Fig. 11): how a UAV's thrust-to-weight ratio
// changes the compute-throughput requirement. The study equips the DJI Spark
// and the more agile Zhang nano-UAV with the same 60 FPS sensor, overlays
// their F-1 rooflines, and shows that the agile platform's knee point sits
// at roughly twice the action throughput — so it needs roughly twice the
// accelerator.
//
// Run with:
//
//	go run ./examples/agility_study
package main

import (
	"context"
	"fmt"
	"log"

	"autopilot/internal/airlearning"
	"autopilot/internal/catalog"
	"autopilot/internal/core"
	"autopilot/internal/f1"
	"autopilot/internal/plot"
	"autopilot/internal/thermal"
	"autopilot/internal/uav"
)

func main() {
	model := f1.ForScenario(airlearning.DenseObstacle)
	payload := thermal.Default().ComputeWeightGrams(0.7) // the paper's AP payload

	chart := plot.New("F-1 rooflines: agile nano vs DJI Spark (dense obstacles)",
		"action throughput (Hz)", "safe velocity (m/s)")
	fmt.Println("platform                     accel     knee    required compute")
	for _, plat := range []catalog.Loadout{uav.DJISpark(), uav.ZhangNano()} {
		accel := plat.MaxAccelMS2(payload)
		knee := model.KneePoint(accel)
		pts := model.Curve(accel, 100, 60)
		xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.ThroughputHz, p.VSafeMS
		}
		chart.AddLine(fmt.Sprintf("%s (knee %.0f Hz)", plat.Airframe.Label, knee), xs, ys)
		fmt.Printf("%-26s %5.1f m/s² %5.1f Hz   sensor-compute pipeline at >= %.0f FPS\n",
			plat.Airframe.Label, accel, knee, knee)
	}
	fmt.Println()
	fmt.Print(chart)

	// Confirm with the full pipeline: AutoPilot should select roughly 2x the
	// compute throughput for the nano (paper: 46 vs 27 Hz knee points).
	fmt.Println("\nfull pipeline selections (dense obstacles, 60 FPS sensor):")
	for _, plat := range []catalog.Loadout{uav.DJISpark(), uav.ZhangNano()} {
		spec := core.DefaultSpec(plat, airlearning.DenseObstacle)
		spec.SensorFPS = 60
		rep, err := core.Run(context.Background(), spec)
		if err != nil {
			log.Fatal(err)
		}
		s := rep.Selected
		fmt.Printf("  %-26s %6.1f FPS accel (knee %.1f Hz) -> v_safe %.2f m/s, %.2f missions\n",
			plat.Airframe.Label, s.Design.FPS, s.KneeHz, s.VSafeMS, s.Missions())
	}
}
