// Package core is the AutoPilot orchestrator (paper Fig. 1): it wires the
// three phases together. Phase 1 populates the Air Learning database with
// validated E2E policies (trained with RL, or via the calibrated surrogate
// for experiment-scale runs). Phase 2 runs multi-objective Bayesian DSE over
// the joint model/accelerator space. Phase 3 is the domain-specific back
// end: it filters top-success designs, maps them onto the F-1 model with
// their thermal payload weight, evaluates mission-level performance
// (Eq. 1–4), applies architectural fine-tuning, and selects the design that
// maximizes the number of missions.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/catalog"
	"autopilot/internal/dse"
	"autopilot/internal/f1"
	"autopilot/internal/fault"
	"autopilot/internal/hw"
	"autopilot/internal/mission"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/rl"
	"autopilot/internal/thermal"
	"autopilot/internal/train"
	"autopilot/internal/tuning"
)

// Phase1Mode selects how the policy database is produced.
type Phase1Mode int

// Phase-1 modes.
const (
	// Phase1Surrogate fills the database from the calibrated success-rate
	// surrogate (laptop-scale substitute for the multi-day RL sweep).
	Phase1Surrogate Phase1Mode = iota
	// Phase1Train actually trains each model with RL on the grid-world
	// simulator.
	Phase1Train
)

// Spec is the high-level task specification the user hands AutoPilot
// (paper §III-A): the UAV, the deployment scenario, and budgets.
type Spec struct {
	// Platform is the fixed vehicle designs fly on unless they carry a
	// loadout of their own: a catalog airframe with its default battery and
	// sensor (uav.ZhangNano() and the other Table IV platforms).
	Platform catalog.Loadout
	Scenario airlearning.Scenario

	// SensorFPS is the sensor frame rate every design flies at; 0 selects
	// the fastest rate available: a vehicle design's loadout sensor's
	// fastest mode, and the fixed platform's airframe's fastest supported
	// rate.
	SensorFPS float64

	Mission       mission.Spec
	MissionParams mission.Params
	Thermal       thermal.Params
	PowerModel    power.Model

	Phase1Mode Phase1Mode
	// TrainHypers limits Phase1Train to a subset of the template family
	// (nil = the full Table II family, which is slow).
	TrainHypers []policy.Hyper
	TrainCfg    rl.TrainConfig
	// TrainCheckpoint makes the Phase-1 training sweep resumable: when
	// non-empty the policy database is snapshotted there after every
	// completed record, and a restarted run skips points the snapshot
	// already holds. Empty disables checkpointing.
	TrainCheckpoint string

	Space  dse.Space
	Phase2 dse.Config

	Tuning tuning.Options

	// Workers bounds the worker pool shared by the Phase-1 training sweep
	// and the Phase-2 search (its evaluations and its candidate screen);
	// <= 0 selects runtime.NumCPU().
	// Results are bitwise deterministic regardless of the worker count:
	// per-policy training seeds derive from the hyper-parameter identity,
	// parallel evaluations are re-assembled in submission order, and the
	// screen's blocks are reduced in screen order.
	Workers int

	// Retries is the total attempt budget per Phase-1 training job and
	// Phase-2 evaluation; values <= 1 mean a single attempt (identical to
	// the pre-retry pipeline). Retried attempts derive fresh seeds from the
	// job identity and attempt index, so results stay deterministic.
	Retries int
	// JobTimeout bounds each attempt; 0 means unbounded. The bound is
	// cooperative: Phase-1 training attempts observe it, while a Phase-2
	// evaluation never reads its context and so never times out.
	JobTimeout time.Duration
	// FailureBudget is the fraction of jobs a phase may lose (after
	// retries) before it errors. 0 preserves fail-fast; a positive budget
	// lets sweeps complete with the failures reported.
	FailureBudget float64

	// Obs, when non-nil, instruments the whole pipeline: the three phases
	// become trace spans (cat "phase" — what run manifests report as phase
	// durations), and every layer underneath (train, dse, pool, fault, hw)
	// records its counters and spans through the same observer. nil runs
	// uninstrumented at zero cost; all results are bitwise identical.
	Obs *obs.Observer
}

// DefaultSpec returns a complete specification for a platform and scenario
// using surrogate Phase 1 and the default budgets.
func DefaultSpec(p catalog.Loadout, s airlearning.Scenario) Spec {
	return Spec{
		Platform:      p,
		Scenario:      s,
		Mission:       mission.DefaultSpec(),
		MissionParams: mission.DefaultParams(),
		Thermal:       thermal.Default(),
		PowerModel:    power.Default(),
		Phase1Mode:    Phase1Surrogate,
		TrainCfg:      rl.DefaultTrainConfig(),
		Space:         dse.DefaultSpace(),
		Phase2:        dse.DefaultConfig(),
		Tuning:        tuning.DefaultOptions(),
	}
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if err := s.Platform.Validate(); err != nil {
		return err
	}
	if err := s.Space.Validate(); err != nil {
		return err
	}
	if err := s.Thermal.Validate(); err != nil {
		return err
	}
	if s.Mission.DistanceM <= 0 {
		return fmt.Errorf("core: non-positive mission distance")
	}
	return nil
}

// Selection is one design evaluated at the full-UAV level.
type Selection struct {
	Design   dse.Evaluated
	NodeNM   int
	Tuned    string // human-readable tuning description, "" if untouched
	PayloadG float64
	// Loadout names the catalog loadout the design flew on; the zero value
	// means the spec's fixed platform (the legacy pipeline).
	Loadout dse.VehicleRef

	// Flight is the F-1 operating point and Eq. 1–4 profile; zero when the
	// vehicle cannot carry the design.
	mission.Flight
	Liftable bool
}

// Missions returns the mission count, 0 when the UAV cannot lift the design.
func (s Selection) Missions() float64 {
	if !s.Liftable {
		return 0
	}
	return s.Profile.Missions
}

// Report is the full AutoPilot output for one (UAV, scenario) specification.
type Report struct {
	Spec     Spec
	Database *airlearning.Database
	// Phase1 is the training sweep's fault-tolerance report (trained/skipped
	// counts, failures, checkpoint quarantine); nil in surrogate mode.
	Phase1 *train.SweepReport
	Phase2 *dse.Result
	F1     f1.Model

	// Selected is AutoPilot's pick (the "AP" design).
	Selected Selection
	// HT, LP, HE are the conventional-DSE picks evaluated at mission level.
	HT, LP, HE Selection
	// Candidates are all top-success designs evaluated at mission level.
	Candidates []Selection
}

// Run executes the full three-phase pipeline. Long sweeps are cancellable:
// when ctx is cancelled the active phase drains its worker pool and Run
// returns an error wrapping ctx.Err().
func Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx = obs.NewContext(ctx, spec.Obs)
	root := obs.StartStep(ctx, "autopilot "+spec.Scenario.String(), "run")
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	db, p1, err := Phase1Report(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("core: phase 1: %w", err)
	}
	res, err := Phase2(ctx, spec, db)
	if err != nil {
		return nil, fmt.Errorf("core: phase 2: %w", err)
	}
	rep, err := Phase3(ctx, spec, res)
	if err != nil {
		return nil, fmt.Errorf("core: phase 3: %w", err)
	}
	rep.Database = db
	rep.Phase1 = p1
	return rep, nil
}

// Phase1 produces the validated-policy database for the scenario. It is
// Phase1Report without the sweep report.
func Phase1(ctx context.Context, spec Spec) (*airlearning.Database, error) {
	db, _, err := Phase1Report(ctx, spec)
	return db, err
}

// Phase1Report produces the validated-policy database for the scenario plus
// the training sweep's fault-tolerance report. In Phase1Train mode the
// per-model training runs go through the unified training engine
// (internal/train): they fan out over the spec's worker pool with
// hyper-identity-derived seeds, honor cancellation between episodes, run
// under the spec's retry policy and failure budget, and — with
// TrainCheckpoint set — snapshot the database after every completed record
// so an interrupted sweep resumes where it left off (a corrupt checkpoint is
// quarantined and reported, not fatal). The report is nil in surrogate mode.
func Phase1Report(ctx context.Context, spec Spec) (*airlearning.Database, *train.SweepReport, error) {
	ctx = obs.NewContext(ctx, spec.Obs)
	sp := obs.StartStep(ctx, "phase1", "phase")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	db := airlearning.NewDatabase()
	switch spec.Phase1Mode {
	case Phase1Surrogate:
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: cancelled: %w", err)
		}
		airlearning.PopulateSurrogate(db)
		return db, nil, nil
	case Phase1Train:
		hypers := spec.TrainHypers
		if hypers == nil {
			hypers = policy.AllHypers()
		}
		eng := train.New(rl.Factory(spec.TrainCfg), train.Config{
			Episodes:      spec.TrainCfg.Episodes,
			EvalEpisodes:  spec.TrainCfg.EvalEpisodes,
			Seed:          spec.TrainCfg.Seed,
			Workers:       spec.Workers,
			Checkpoint:    spec.TrainCheckpoint,
			Retry:         fault.NewPolicy(spec.Retries, spec.JobTimeout),
			FailureBudget: spec.FailureBudget,
			Obs:           spec.Obs,
		})
		rep, err := eng.Sweep(ctx, hypers, spec.Scenario, db)
		if err != nil {
			return nil, rep, err
		}
		return db, rep, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown phase-1 mode %d", int(spec.Phase1Mode))
	}
}

// Phase2 runs the multi-objective DSE against the database under the spec's
// retry policy and failure budget.
func Phase2(ctx context.Context, spec Spec, db *airlearning.Database) (*dse.Result, error) {
	ctx = obs.NewContext(ctx, spec.Obs)
	sp := obs.StartStep(ctx, "phase2", "phase")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	return dse.Execute(ctx, dse.Request{
		Space:         spec.Space,
		DB:            db,
		Scenario:      spec.Scenario,
		Power:         spec.PowerModel,
		Config:        spec.Phase2,
		Workers:       spec.Workers,
		Vehicle:       spec.vehicleParams(),
		Retry:         fault.NewPolicy(spec.Retries, spec.JobTimeout),
		JobTimeout:    spec.JobTimeout,
		FailureBudget: spec.FailureBudget,
		Obs:           spec.Obs,
	})
}

// vehicleParams is the mission, thermal and sensor context vehicle designs
// fly under, in Phase 2 and Phase 3 alike.
func (s Spec) vehicleParams() dse.VehicleParams {
	return dse.VehicleParams{Mission: s.Mission, Params: s.MissionParams, Thermal: s.Thermal, SensorFPS: s.SensorFPS}
}

// sensorFPS is the frame rate designs fly at on the fixed platform: the
// spec's SensorFPS when set, otherwise the airframe's fastest supported rate.
func (s Spec) sensorFPS() float64 {
	if s.SensorFPS > 0 {
		return s.SensorFPS
	}
	return s.Platform.Airframe.MaxSensorFPS()
}

// fly is the Phase-3 full-system evaluation: it flies one design's compute
// — its FPS and SoC draw, at payloadG grams — on a loadout through
// mission.EvaluateLoadout, the evaluation Phase 2 scores vehicle designs
// with. Searched designs, fine-tuned variants, baseline boards and raw
// estimates all go through it, so any future hw.Backend gets the
// Fig. 5-style comparison for free. Designs the loadout cannot carry come
// back with Liftable=false.
func fly(spec Spec, lo catalog.Loadout, sensorFPS, fps, socW, payloadG float64, model f1.Model) Selection {
	fl, err := mission.EvaluateLoadout(lo, spec.MissionParams, spec.Mission, model, payloadG, fps, socW, sensorFPS)
	return Selection{NodeNM: 28, PayloadG: payloadG, Flight: fl, Liftable: err == nil}
}

// payloadFor resolves the flown compute weight for an estimate: boards
// flown as-is carry their weight hint; everything else derives motherboard,
// packaging, and heatsinking from the accelerator TDP via the thermal model.
func payloadFor(spec Spec, est hw.Estimate) float64 {
	if est.FlownWeightG > 0 {
		return est.FlownWeightG
	}
	return spec.Thermal.ComputeWeightGrams(est.AccelPowerW)
}

// EvaluateEstimate runs the Phase-3 full-system evaluation for a raw
// hardware cost-model estimate — the entry point for new backends (SPA
// stacks on embedded CPUs, future accelerator templates) that never pass
// through the Phase-2 design space.
func EvaluateEstimate(spec Spec, est hw.Estimate, success float64, model f1.Model) Selection {
	sel := fly(spec, spec.Platform, spec.sensorFPS(), est.FPS, est.SoCPowerW, payloadFor(spec, est), model)
	sel.Design = dse.FromEstimate(dse.DesignPoint{}, success, est)
	return sel
}

// EvaluateOnPlatform performs the Phase-3 full-system evaluation of one
// scored design: payload weight from the accelerator TDP, F-1 safe velocity
// at the effective action throughput, and Eq. 1–4 mission metrics. Designs
// carrying a loadout reference fly on that catalog loadout (its sensor, its
// SoC sensor power) instead of the spec's fixed platform — fine-tuned
// variants resolve the same loadout through the design point, so tuning
// never silently reverts the vehicle. Designs the vehicle cannot lift come
// back with Liftable=false.
func EvaluateOnPlatform(spec Spec, e dse.Evaluated, model f1.Model) Selection {
	payloadG := spec.Thermal.ComputeWeightGrams(e.AccelPowerW)
	v := e.Design.Vehicle
	if v == (dse.VehicleRef{}) {
		sel := fly(spec, spec.Platform, spec.sensorFPS(), e.FPS, e.SoCPowerW, payloadG, model)
		sel.Design = e
		return sel
	}
	lo, err := v.Loadout()
	if err != nil {
		return Selection{NodeNM: 28, Design: e, Loadout: v}
	}
	// Re-derive SoC power from the breakdown with the loadout's sensor, so
	// fine-tuned estimates (built with the Table III sensor) score
	// consistently with the searched design.
	socW := power.SoCWithSensor(e.Breakdown, lo.Sensor.PowerW)
	sel := fly(spec, lo, spec.vehicleParams().SensorRate(lo), e.FPS, socW, payloadG, model)
	sel.Design = e
	sel.Design.SoCPowerW = socW
	// Rebuild the vehicle-eval block from this evaluation: fine-tuned
	// variants arrive with it zeroed, and a tuned accelerator changes the
	// payload weight anyway.
	sel.Design.Vehicle = dse.NewVehicleEval(v, lo, payloadG, sel.Flight)
	sel.Loadout = v
	return sel
}

// Phase3 is the domain-specific back end: filter top-success designs, map
// them to the F-1 model, fine-tune, and select the mission-optimal design.
func Phase3(ctx context.Context, spec Spec, res *dse.Result) (*Report, error) {
	ctx = obs.NewContext(ctx, spec.Obs)
	sp := obs.StartStep(ctx, "phase3", "phase")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	model := f1.ForScenario(spec.Scenario)
	rep := &Report{Spec: spec, Phase2: res, F1: model}

	top := res.TopSuccess(0.02)
	if len(top) == 0 {
		return nil, fmt.Errorf("core: phase 2 produced no designs")
	}
	best := Selection{}
	for _, i := range top {
		sel := EvaluateOnPlatform(spec, res.Evaluated[i], model)
		rep.Candidates = append(rep.Candidates, sel)
		if preferable(sel, best) {
			best = sel
		}
	}
	if !best.Liftable {
		return nil, fmt.Errorf("core: %s cannot lift any top-success design", spec.Platform.Airframe.Label)
	}

	// Architectural fine-tuning: try frequency/node variants of the winner
	// and keep whichever maximizes missions.
	tuned, err := FineTune(spec, best, model)
	if err != nil {
		return nil, err
	}
	rep.Selected = tuned

	if res.HT >= 0 {
		rep.HT = EvaluateOnPlatform(spec, res.Evaluated[res.HT], model)
	}
	if res.LP >= 0 {
		rep.LP = EvaluateOnPlatform(spec, res.Evaluated[res.LP], model)
	}
	if res.HE >= 0 {
		rep.HE = EvaluateOnPlatform(spec, res.Evaluated[res.HE], model)
	}
	return rep, nil
}

// FineTune searches frequency/node variants of a selection and returns the
// best mission performer (possibly the untouched design).
func FineTune(spec Spec, sel Selection, model f1.Model) (Selection, error) {
	variants, err := tuning.Variants(sel.Design.Design, spec.Tuning)
	if err != nil {
		return Selection{}, err
	}
	net, err := policy.Build(sel.Design.Design.Hyper, spec.Space.Template)
	if err != nil {
		return Selection{}, err
	}
	best := sel
	wl := hw.NetworkWorkload(sel.Design.Design.Hyper.String(), net)
	for _, v := range variants {
		pm, err := spec.PowerModel.AtNode(v.NodeNM)
		if err != nil {
			return Selection{}, err
		}
		be := hw.SystolicBackend{Config: v.Design.HW, Power: pm}
		est, err := be.Estimate(wl)
		if err != nil {
			continue // a variant clock may be invalid; skip it
		}
		e := dse.FromEstimate(v.Design, sel.Design.SuccessRate, est)
		cand := EvaluateOnPlatform(spec, e, model)
		cand.NodeNM = v.NodeNM
		if v.NodeNM != 28 || v.FreqScale != 1.0 {
			cand.Tuned = v.Describe()
		}
		if preferable(cand, best) {
			best = cand
		}
	}
	return best, nil
}

// EvaluateBaseline evaluates a fixed compute platform (TX2, NX, PULP, NCS)
// carrying the scenario's best E2E model on the spec's UAV — the Fig. 5
// comparison points. The board goes through the same hw.Backend seam and
// full-system path as searched designs; its flown weight hint replaces the
// thermal-model payload.
func EvaluateBaseline(spec Spec, db *airlearning.Database, b catalog.ComputeBoard) Selection {
	model := f1.ForScenario(spec.Scenario)
	success := 0.0
	wl := hw.Workload{Name: b.Label + "/no-model", Kind: hw.WorkloadNetwork}
	if rec, ok := db.Best(spec.Scenario); ok {
		success = rec.SuccessRate
		if net, err := policy.Build(rec.Hyper, spec.Space.Template); err == nil {
			wl = hw.NetworkWorkload(rec.Hyper.String(), net)
		}
	}
	est, err := hw.BoardBackend{Board: b}.Estimate(wl)
	if err != nil {
		return Selection{NodeNM: 28, PayloadG: b.WeightG}
	}
	return EvaluateEstimate(spec, est, success, model)
}

// MissionGain returns how many times more missions `a` achieves than `b`,
// guarding against division by zero.
func MissionGain(a, b Selection) float64 {
	if b.Missions() <= 0 {
		return math.Inf(1)
	}
	return a.Missions() / b.Missions()
}

// preferable implements the paper's Phase-3 selection rule: maximize
// missions, and among mission-equivalent designs (within 5%) prefer the one
// closest to the F-1 knee point, then the lower-power one — "the design
// point closest to the knee-point can be selected" (§III-C).
func preferable(a, b Selection) bool {
	am, bm := a.Missions(), b.Missions()
	if am <= 0 {
		return false
	}
	if bm <= 0 {
		return true
	}
	if am > bm*1.05 {
		return true
	}
	if bm > am*1.05 {
		return false
	}
	ad, bd := kneeDistance(a), kneeDistance(b)
	if math.Abs(ad-bd) > 1e-9 {
		return ad < bd
	}
	return a.Design.SoCPowerW < b.Design.SoCPowerW
}

// kneeDistance is the log-scale distance of the action throughput from the
// knee; over-provisioning counts the same as under-provisioning.
func kneeDistance(s Selection) float64 {
	if s.ActionHz <= 0 || s.KneeHz <= 0 {
		return math.Inf(1)
	}
	return math.Abs(math.Log(s.ActionHz / s.KneeHz))
}
