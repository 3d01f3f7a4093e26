// Command f1plot renders the F-1 cyber-physical roofline for a UAV and
// deployment scenario as an ASCII chart, with the knee point and optional
// design operating points marked — the tool behind the paper's Fig. 4 and
// the F-1 panels of Figs. 8–11.
//
// Usage:
//
//	f1plot -uav nano -scenario dense -payload 24 [-design-fps 46 -design-fps 205]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"autopilot/internal/api"
	"autopilot/internal/f1"
	"autopilot/internal/plot"
)

type fpsList []float64

func (l *fpsList) String() string { return fmt.Sprint(*l) }

func (l *fpsList) Set(s string) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	uavName := flag.String("uav", "nano", "UAV class: mini|micro|nano")
	scenName := flag.String("scenario", "dense", "deployment scenario: low|medium|dense")
	payload := flag.Float64("payload", 24, "compute payload in grams")
	maxHz := flag.Float64("max-hz", 100, "x-axis extent in Hz")
	var designs fpsList
	flag.Var(&designs, "design-fps", "mark a design operating point (repeatable)")
	flag.Parse()

	// UAV and scenario names resolve through the shared api contract, so
	// f1plot accepts exactly the spellings cmd/autopilot and the job server
	// do.
	plat, err := api.ParseUAV(*uavName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f1plot:", err)
		os.Exit(2)
	}
	scen, err := api.ParseScenario(*scenName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "f1plot:", err)
		os.Exit(2)
	}

	model := f1.ForScenario(scen)
	accel := plat.MaxAccelMS2(*payload)
	if accel <= 0 {
		fmt.Fprintf(os.Stderr, "f1plot: %s cannot lift %.0f g\n", plat.Airframe.Label, *payload)
		os.Exit(1)
	}
	knee := model.KneePoint(accel)

	chart := plot.New(
		fmt.Sprintf("F-1 roofline: %s, %s, %.0f g payload (a=%.1f m/s²)", plat.Airframe.Label, scen, *payload, accel),
		"action throughput (Hz)", "safe velocity (m/s)")
	pts := model.Curve(accel, *maxHz, 64)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.ThroughputHz, p.VSafeMS
	}
	chart.AddLine("v_safe", xs, ys)
	chart.AddPoint(fmt.Sprintf("knee %.1f Hz", knee), knee, model.SafeVelocity(knee, accel), 'K')
	for _, fps := range designs {
		v := model.SafeVelocity(fps, accel)
		label := fmt.Sprintf("design %.0f FPS (%s)", fps, f1.Classify(fps, knee))
		chart.AddPoint(label, fps, v, 'D')
	}
	fmt.Print(chart)
	fmt.Printf("\nceiling %.2f m/s, knee %.1f Hz\n", model.CeilingVelocity(accel), knee)
}
