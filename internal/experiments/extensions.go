package experiments

import (
	"context"
	"fmt"

	"autopilot/internal/airlearning"
	"autopilot/internal/core"
	"autopilot/internal/cpu"
	"autopilot/internal/dse"
	"autopilot/internal/f1"
	"autopilot/internal/hw"
	"autopilot/internal/pareto"
	"autopilot/internal/power"
	"autopilot/internal/spa"
	"autopilot/internal/uav"
)

// ExtSensor is an extension study beyond the paper's figures: how the
// sensor frame rate bounds the pipeline. §V-C assumes 60 FPS sensors "to
// avoid being sensor-bound"; this table quantifies what a 30 FPS sensor
// costs the nano-UAV and that faster-than-60 FPS sensors buy nothing once
// physics binds (Table IV lists 30/60 FPS RGB sensors).
func (s *Suite) ExtSensor() (Table, error) {
	t := Table{
		ID:     "ExtSensor",
		Title:  "Sensor frame rate vs mission performance (nano-UAV, dense obstacles)",
		Header: []string{"sensor FPS", "action Hz", "bound", "v_safe", "missions"},
	}
	base, err := s.report(uav.ZhangNano(), airlearning.DenseObstacle)
	if err != nil {
		return Table{}, err
	}
	for _, fps := range []float64{30, 60, 90} {
		spec := base.Spec
		spec.SensorFPS = fps
		sel := core.EvaluateOnPlatform(spec, base.Selected.Design, base.F1)
		t.Rows = append(t.Rows, []string{
			f1s(fps), f1s(sel.ActionHz), sel.Bound.String(), f2s(sel.VSafeMS), f2s(sel.Missions()),
		})
	}
	t.Notes = append(t.Notes, "paper §V-C equips UAVs with 60 FPS sensors to avoid being sensor-bound")
	return t, nil
}

// ExtOptimizer compares the Phase-2 search methods the paper lists as
// interchangeable (§III-B: BO, evolutionary algorithms, simulated
// annealing) at the same evaluation budget on the dense-obstacle space.
func (s *Suite) ExtOptimizer() (Table, error) {
	t := Table{
		ID:     "ExtOptimizer",
		Title:  "Phase-2 optimizer comparison at equal budget (dense obstacles)",
		Header: []string{"optimizer", "evaluated", "front size", "hypervolume"},
	}
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := dse.DefaultSpace()
	cfg := s.cfg
	cfg.ProbeCorners = false // isolate the search methods from the seeding
	ref := []float64{0, 30, 1}
	for _, opt := range []dse.Optimizer{dse.OptBayesian, dse.OptGenetic, dse.OptAnnealing, dse.OptReinforce, dse.OptRandom} {
		res, err := dse.Execute(context.Background(), dse.Request{
			Space: space, DB: db, Scenario: airlearning.DenseObstacle,
			Power: power.Default(), Config: cfg, Optimizer: opt,
		})
		if err != nil {
			return Table{}, err
		}
		objs := make([][]float64, 0, len(res.ParetoIdx))
		for _, e := range res.Pareto() {
			objs = append(objs, e.Objectives())
		}
		t.Rows = append(t.Rows, []string{
			opt.String(),
			fmt.Sprintf("%d", len(res.Evaluated)),
			fmt.Sprintf("%d", len(res.ParetoIdx)),
			f2s(pareto.Hypervolume(objs, ref)),
		})
	}
	t.Notes = append(t.Notes, "paper §III-B: the BO stage is replaceable by GA/SA/RL without changing the methodology")
	return t, nil
}

// ExtBaselines extends the Fig. 5 comparison to every baseline board
// (the trio plus the Intel NCS, Table V) across all three UAV classes on
// the dense scenario — each board priced through the unified hw.BoardBackend
// and the single full-system evaluation path.
func (s *Suite) ExtBaselines() (Table, error) {
	t := Table{
		ID:     "ExtBaselines",
		Title:  "All baseline boards vs AutoPilot across UAV classes (dense obstacles)",
		Header: []string{"UAV", "board", "FPS", "SoC W", "payload g", "missions", "AP gain"},
	}
	for _, plat := range uav.Platforms() {
		rep, err := s.report(plat, airlearning.DenseObstacle)
		if err != nil {
			return Table{}, err
		}
		for _, b := range uav.AllBaselines() {
			sel := core.EvaluateBaseline(rep.Spec, rep.Database, b)
			gain := "inf"
			if sel.Missions() > 0 {
				gain = f2s(core.MissionGain(rep.Selected, sel))
			}
			t.Rows = append(t.Rows, []string{
				plat.Airframe.Class, b.Label,
				f1s(sel.Design.FPS), f2s(sel.Design.SoCPowerW), f1s(sel.PayloadG),
				f2s(sel.Missions()), gain,
			})
		}
	}
	t.Notes = append(t.Notes, "boards flown as-is: their weight hint replaces the thermal-model payload")
	return t, nil
}

// ExtSPA demonstrates the §VII extension end to end: the measured
// Sense-Plan-Act op-count lowers into an hw.SPAWorkload, prices on the
// embedded CPU backend, and maps onto the F-1/mission back end unchanged.
func (s *Suite) ExtSPA() (Table, error) {
	t := Table{
		ID:     "ExtSPA",
		Title:  "SPA autonomy stack on embedded CPUs via the hw cost-model layer (nano, dense)",
		Header: []string{"backend", "action Hz", "SoC W", "payload g", "v_safe", "missions"},
	}
	st := spa.Measure(airlearning.DenseObstacle, 8, 42)
	wl := hw.SPAWorkload("spa/dense", st.OpsPerDecision)
	spec := core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	model := f1.ForScenario(spec.Scenario)
	for _, c := range cpu.Catalog() {
		be := hw.CPUBackend{Config: c, Power: cpu.DefaultPowerModel()}
		est, err := be.Estimate(wl)
		if err != nil {
			return Table{}, err
		}
		sel := core.EvaluateEstimate(spec, est, st.SuccessRate, model)
		t.Rows = append(t.Rows, []string{
			be.Name(), f1s(sel.ActionHz), f2s(sel.Design.SoCPowerW),
			f1s(sel.PayloadG), f2s(sel.VSafeMS), f2s(sel.Missions()),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured %.0f ops/decision at %.0f%% task success over %d episodes",
			st.OpsPerDecision, 100*st.SuccessRate, st.Episodes),
		"paper §VII: SLAM/planning templates replace the systolic array; the F-1 back end is unchanged")
	return t, nil
}
