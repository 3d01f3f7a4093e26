package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/catalog"
	"autopilot/internal/dse"
	"autopilot/internal/f1"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/uav"
)

// fastSpec shrinks the Phase-2 budget so pipeline tests stay quick.
func fastSpec(p catalog.Loadout, s airlearning.Scenario) Spec {
	spec := DefaultSpec(p, s)
	bo := bayesopt.DefaultConfig()
	bo.InitSamples, bo.Iterations, bo.ScreenSize = 12, 16, 96
	spec.Phase2 = dse.Config{CandidatePool: 256, BO: bo, Seed: 1, ProbeCorners: true}
	return spec
}

func runNanoDense(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(context.Background(), fastSpec(uav.ZhangNano(), airlearning.DenseObstacle))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSpecValidate(t *testing.T) {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := spec
	bad.Mission.DistanceM = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero distance")
	}
	bad = spec
	bad.Platform = catalog.Loadout{}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for empty platform")
	}
}

func TestPhase1Surrogate(t *testing.T) {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	db, err := Phase1(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 81 {
		t.Fatalf("db records = %d, want 81", db.Len())
	}
}

func TestPhase1Train(t *testing.T) {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.LowObstacle)
	spec.Phase1Mode = Phase1Train
	spec.TrainHypers = []policy.Hyper{{Layers: 2, Filters: 32}}
	spec.TrainCfg = rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 3, EvalEpisodes: 3, Seed: 1}
	db, err := Phase1(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Get(policy.Hyper{Layers: 2, Filters: 32}, airlearning.LowObstacle)
	if !ok || rec.TrainSteps <= 0 {
		t.Fatalf("trained record = %+v, ok=%v", rec, ok)
	}
}

func TestPhase1UnknownMode(t *testing.T) {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.LowObstacle)
	spec.Phase1Mode = Phase1Mode(99)
	if _, err := Phase1(context.Background(), spec); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunFullPipelineNanoDense(t *testing.T) {
	rep := runNanoDense(t)
	if !rep.Selected.Liftable {
		t.Fatal("selected design must be liftable")
	}
	if rep.Selected.Missions() <= 0 {
		t.Fatal("selected design must fly missions")
	}
	if rep.Selected.Design.SuccessRate < 0.7 {
		t.Fatalf("selected success = %g, expected a top model", rep.Selected.Design.SuccessRate)
	}
	// the selected model for dense obstacles should be the surrogate winner
	if h := rep.Selected.Design.Design.Hyper; h.Layers != 7 || h.Filters != 48 {
		t.Fatalf("selected model = %v, want L7F48 (paper §V-A dense winner)", h)
	}
	if len(rep.Candidates) == 0 {
		t.Fatal("no candidates recorded")
	}
}

func TestAutoPilotBeatsConventionalPicks(t *testing.T) {
	// the core claim of Figs. 8-10: the mission-optimal (AP) design beats
	// HT, LP and HE on mission count
	rep := runNanoDense(t)
	for _, alt := range []struct {
		name string
		sel  Selection
	}{{"HT", rep.HT}, {"LP", rep.LP}, {"HE", rep.HE}} {
		if gain := MissionGain(rep.Selected, alt.sel); gain < 1 {
			t.Errorf("AP does not beat %s: gain %.2f", alt.name, gain)
		}
	}
}

func TestNanoDenseMissionRatiosInPaperBands(t *testing.T) {
	// paper §V-B1: AP beats HT/LP/HE by ≈2.25×/1.8×/1.3×. Our calibrated
	// reproduction must land in the same regime (see EXPERIMENTS.md for the
	// measured values).
	rep := runNanoDense(t)
	if g := MissionGain(rep.Selected, rep.HT); g < 1.8 || g > 4.5 {
		t.Errorf("AP/HT = %.2f, want within [1.8, 4.5] (paper 2.25)", g)
	}
	if g := MissionGain(rep.Selected, rep.LP); g < 1.3 || g > 2.6 {
		t.Errorf("AP/LP = %.2f, want within [1.3, 2.6] (paper 1.8)", g)
	}
	if g := MissionGain(rep.Selected, rep.HE); g < 1.0 || g > 1.9 {
		t.Errorf("AP/HE = %.2f, want within [1.0, 1.9] (paper 1.3)", g)
	}
}

func TestHTDesignMatchesPaperProfile(t *testing.T) {
	// paper: HT ≈ 205 FPS @ 8.24 W with ~65 g payload
	rep := runNanoDense(t)
	ht := rep.HT
	if ht.Design.FPS < 150 || ht.Design.FPS > 350 {
		t.Errorf("HT FPS = %.0f, want ~205", ht.Design.FPS)
	}
	if ht.Design.SoCPowerW < 6 || ht.Design.SoCPowerW > 11 {
		t.Errorf("HT power = %.2f W, want ~8.24", ht.Design.SoCPowerW)
	}
	if ht.PayloadG < 50 || ht.PayloadG > 85 {
		t.Errorf("HT payload = %.0f g, want ~65", ht.PayloadG)
	}
}

func TestLPDesignMatchesPaperProfile(t *testing.T) {
	// paper: LP action throughput ≈ 18.4 Hz, ~2.5× under the ~46 Hz knee
	rep := runNanoDense(t)
	lp := rep.LP
	if lp.ActionHz < 12 || lp.ActionHz > 25 {
		t.Errorf("LP action throughput = %.1f Hz, want ~18.4", lp.ActionHz)
	}
	if lp.Provisioning != f1.UnderProvisioned {
		t.Errorf("LP provisioning = %v, want under-provisioned", lp.Provisioning)
	}
	if ratio := lp.KneeHz / lp.ActionHz; ratio < 1.8 || ratio > 3.5 {
		t.Errorf("knee/LP ratio = %.1f, paper reports ~2.5", ratio)
	}
}

func TestSelectedDesignNearKnee(t *testing.T) {
	rep := runNanoDense(t)
	sel := rep.Selected
	if sel.Provisioning == f1.UnderProvisioned {
		t.Errorf("AP selection is under-provisioned (%.1f Hz vs knee %.1f)", sel.ActionHz, sel.KneeHz)
	}
}

func TestEvaluateOnPlatformUnliftable(t *testing.T) {
	spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	e := dse.Evaluated{AccelPowerW: 100, FPS: 100, SoCPowerW: 100} // ~566 g heatsink
	sel := EvaluateOnPlatform(spec, e, f1.ForScenario(spec.Scenario))
	if sel.Liftable || sel.Missions() != 0 {
		t.Fatal("unliftable design must report zero missions")
	}
}

func TestEvaluateBaselinePULP(t *testing.T) {
	spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	db, err := Phase1(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sel := EvaluateBaseline(spec, db, uav.PULPDroNet())
	if !sel.Liftable {
		t.Fatal("nano must lift the 5 g PULP chip")
	}
	if sel.ActionHz != 6 {
		t.Fatalf("PULP action throughput = %g, want its pinned 6 FPS", sel.ActionHz)
	}
	if sel.Bound != f1.ComputeBound {
		t.Fatalf("PULP bound = %v, want compute-bound", sel.Bound)
	}
}

func TestEvaluateBaselineTX2CrushesNano(t *testing.T) {
	spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	db, _ := Phase1(context.Background(), spec)
	tx2 := EvaluateBaseline(spec, db, uav.JetsonTX2())
	pulp := EvaluateBaseline(spec, db, uav.PULPDroNet())
	if tx2.Liftable && tx2.Missions() >= pulp.Missions() {
		t.Fatal("a 185 g TX2 on a 50 g nano must be worse than PULP")
	}
}

func TestAutoPilotBeatsAllBaselinesOnNano(t *testing.T) {
	// Fig. 5c: AutoPilot achieves ~2.3× the baseline mean on the nano
	rep := runNanoDense(t)
	spec := rep.Spec
	for _, b := range uav.Baselines() {
		sel := EvaluateBaseline(spec, rep.Database, b)
		if gain := MissionGain(rep.Selected, sel); gain < 1.5 {
			t.Errorf("AP gain over %s = %.2f, want > 1.5", b.Label, gain)
		}
	}
}

func TestFineTuneNeverWorse(t *testing.T) {
	rep := runNanoDense(t)
	// the selected design went through FineTune inside Phase3; re-running
	// FineTune must not degrade it
	tuned, err := FineTune(rep.Spec, rep.Selected, rep.F1)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Missions() < rep.Selected.Missions()-1e-9 {
		t.Fatalf("fine-tuning degraded missions: %g -> %g", rep.Selected.Missions(), tuned.Missions())
	}
}

func TestMissionGainGuards(t *testing.T) {
	a := Selection{Liftable: true}
	a.Profile.Missions = 4
	b := Selection{Liftable: true}
	b.Profile.Missions = 2
	if got := MissionGain(a, b); math.Abs(got-2) > 1e-12 {
		t.Fatalf("gain = %g", got)
	}
	if !math.IsInf(MissionGain(a, Selection{}), 1) {
		t.Fatal("gain over a grounded design must be +Inf")
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	spec.Mission.DistanceM = -1
	if _, err := Run(context.Background(), spec); err == nil {
		t.Fatal("expected error")
	}
}

func TestMiniUAVPipeline(t *testing.T) {
	rep, err := Run(context.Background(), fastSpec(uav.AscTecPelican(), airlearning.MediumObstacle))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Selected.Liftable || rep.Selected.Missions() <= 0 {
		t.Fatal("mini-UAV selection must fly")
	}
	// medium scenario winner is L4F48 per §V-A
	if h := rep.Selected.Design.Design.Hyper; h.Layers != 4 || h.Filters != 48 {
		t.Fatalf("selected model = %v, want L4F48", h)
	}
}

func TestSensorFPSOverride(t *testing.T) {
	spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	spec.SensorFPS = 30
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected.ActionHz > 30 {
		t.Fatalf("action throughput %g exceeds the 30 FPS sensor", rep.Selected.ActionHz)
	}
}

func TestReportSummaryAndWriters(t *testing.T) {
	rep := runNanoDense(t)
	s := rep.Summary()
	if s.UAV == "" || s.Scenario == "" || s.Policies != 81 {
		t.Fatalf("summary header = %+v", s)
	}
	if s.Selected.Missions <= 0 || !s.Selected.Liftable {
		t.Fatalf("selected summary = %+v", s.Selected)
	}
	if len(s.Baselines) != 4 {
		t.Fatalf("baselines = %d, want 4 (Fig. 5 trio + Intel NCS)", len(s.Baselines))
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded ReportSummary
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if decoded.Selected.Model != s.Selected.Model {
		t.Fatal("JSON round trip lost the selected model")
	}

}

func TestPipelineDeterministicForSeed(t *testing.T) {
	a, err := Run(context.Background(), fastSpec(uav.DJISpark(), airlearning.LowObstacle))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), fastSpec(uav.DJISpark(), airlearning.LowObstacle))
	if err != nil {
		t.Fatal(err)
	}
	if a.Selected.Design.Design.String() != b.Selected.Design.Design.String() {
		t.Fatalf("same seed selected different designs:\n%v\n%v",
			a.Selected.Design.Design, b.Selected.Design.Design)
	}
	if a.Selected.Missions() != b.Selected.Missions() {
		t.Fatal("same seed produced different mission counts")
	}
}
