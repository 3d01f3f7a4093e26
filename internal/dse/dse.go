// Package dse implements AutoPilot's Phase 2 (paper §III-B): domain-agnostic
// multi-objective design-space exploration over the joint space of E2E model
// hyper-parameters (Table II: layers, filters) and accelerator hardware
// parameters (PE array shape, scratchpad sizes). Each candidate is scored on
// three objectives — task success rate (from the Air Learning database),
// SoC power, and inference runtime — and explored with SMS-EGO Bayesian
// optimization or one of its alternatives, all driven by one search loop
// (search.go). The output is a set of evaluated designs, their Pareto
// front, and the conventional-DSE picks (HT/LP/HE) that Phase 3 compares
// against.
package dse

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/catalog"
	"autopilot/internal/fault"
	"autopilot/internal/hw"
	"autopilot/internal/obs"
	"autopilot/internal/policy"
	"autopilot/internal/pool"
	"autopilot/internal/power"
	"autopilot/internal/space"
	"autopilot/internal/systolic"
)

// Space is the Table II search space plus the fixed system parameters. It is
// a thin, domain-typed view over the generic space.Space parameter layer:
// ParamSpace materializes the axis list, and Sample/Enumerate/Features all
// delegate to it, so the sampling, enumeration order, and feature
// arithmetic are exactly the generic layer's (bitwise-identical to the
// historical hard-coded grid on the legacy axis list).
type Space struct {
	Layers  []int
	Filters []int
	PERows  []int
	PECols  []int
	SRAMKB  []int // choices shared by the ifmap/filter/ofmap scratchpads

	// Algorithms optionally adds the training algorithm as a categorical
	// co-search axis (AutoSoC direction): each design point then carries the
	// algorithm its policy is trained with, and success rates are adjusted
	// per algorithm via airlearning.AlgorithmSuccess. Empty means the legacy
	// fixed-algorithm (DQN-calibrated) space.
	Algorithms []string

	// Airframes, Batteries, and Sensors optionally add catalog components as
	// categorical vehicle axes (SWaP co-search): each design point then
	// carries a fully-resolved loadout reference, evaluation extends to the
	// full-vehicle mission metrics, and infeasible loadouts surface as typed
	// skips. All empty means the legacy SoC-only space; an axis left empty
	// while another is set falls back to BaseAirframe (or its defaults).
	Airframes []string
	Batteries []string
	Sensors   []string
	// BaseAirframe anchors the loadout when the airframe axis is not
	// searched; empty means "nano".
	BaseAirframe string

	Dataflow systolic.Dataflow
	FreqMHz  float64
	Template policy.TemplateConfig
}

// Canonical axis names of the Table II space.
const (
	AxisAlgorithm  = "algorithm"
	AxisLayers     = "layers"
	AxisFilters    = "filters"
	AxisPERows     = "pe_rows"
	AxisPECols     = "pe_cols"
	AxisSRAMIfmap  = "sram_ifmap_kb"
	AxisSRAMFilter = "sram_filter_kb"
	AxisSRAMOfmap  = "sram_ofmap_kb"
	AxisAirframe   = "airframe"
	AxisBattery    = "battery"
	AxisSensor     = "sensor"
)

// HasVehicleAxes reports whether the space searches any catalog vehicle axis.
func (s Space) HasVehicleAxes() bool {
	return len(s.Airframes) > 0 || len(s.Batteries) > 0 || len(s.Sensors) > 0
}

// baseAirframe resolves the anchor airframe for loadouts when the airframe
// axis is not searched.
func (s Space) baseAirframe() string {
	if s.BaseAirframe != "" {
		return s.BaseAirframe
	}
	return "nano"
}

// ParamSpace materializes the generic parameter space backing this Table II
// view: the optional algorithm axis first, then the model axes, then the
// hardware axes with the feature scales the GP kernels were calibrated on
// (linear over the Table II model range, log2 over the power-of-two
// hardware ranges).
func (s Space) ParamSpace() space.Space {
	axes := make([]space.Axis, 0, 11)
	if len(s.Algorithms) > 0 {
		axes = append(axes, space.CatAxis(AxisAlgorithm, s.Algorithms...))
	}
	axes = append(axes,
		space.Axis{Name: AxisLayers, Kind: space.KindInt, Ints: s.Layers, Lo: 2, Hi: 10},
		space.Axis{Name: AxisFilters, Kind: space.KindInt, Ints: s.Filters, Lo: 32, Hi: 64},
		space.Axis{Name: AxisPERows, Kind: space.KindInt, Ints: s.PERows, Scale: space.ScaleLog2, Lo: 3, Hi: 10},
		space.Axis{Name: AxisPECols, Kind: space.KindInt, Ints: s.PECols, Scale: space.ScaleLog2, Lo: 3, Hi: 10},
		space.Axis{Name: AxisSRAMIfmap, Kind: space.KindInt, Ints: s.SRAMKB, Scale: space.ScaleLog2, Lo: 5, Hi: 12},
		space.Axis{Name: AxisSRAMFilter, Kind: space.KindInt, Ints: s.SRAMKB, Scale: space.ScaleLog2, Lo: 5, Hi: 12},
		space.Axis{Name: AxisSRAMOfmap, Kind: space.KindInt, Ints: s.SRAMKB, Scale: space.ScaleLog2, Lo: 5, Hi: 12},
	)
	// Vehicle axes go strictly after the legacy axes: on a space without
	// them the axis list — and with it the sampling RNG draw order, the
	// enumeration order, and the feature layout — is exactly the legacy one.
	if len(s.Airframes) > 0 {
		axes = append(axes, space.CatAxis(AxisAirframe, s.Airframes...))
	}
	if len(s.Batteries) > 0 {
		axes = append(axes, space.CatAxis(AxisBattery, s.Batteries...))
	}
	if len(s.Sensors) > 0 {
		axes = append(axes, space.CatAxis(AxisSensor, s.Sensors...))
	}
	return space.New(axes...)
}

// FromPoint materializes the design point a generic-space point selects.
func (s Space) FromPoint(p space.Point) (DesignPoint, error) {
	ps := s.ParamSpace()
	if !ps.Contains(p) {
		return DesignPoint{}, fmt.Errorf("dse: point %v outside space", []int(p))
	}
	algo := ""
	if len(s.Algorithms) > 0 {
		algo = s.Algorithms[p[0]]
		p = p[1:]
	}
	d := s.design(
		s.Layers[p[0]], s.Filters[p[1]],
		s.PERows[p[2]], s.PECols[p[3]],
		s.SRAMKB[p[4]], s.SRAMKB[p[5]], s.SRAMKB[p[6]],
	)
	d.Algo = algo
	if s.HasVehicleAxes() {
		v, err := s.vehicleFromTail(p[7:])
		if err != nil {
			return DesignPoint{}, err
		}
		d.Vehicle = v
	}
	return d, nil
}

// vehicleFromTail resolves the trailing vehicle-axis indexes into a fully
// concrete loadout reference: unsearched axes fall back to the base airframe
// and its catalog defaults, so every design point with vehicle axes names a
// complete (airframe, battery, sensor) triple.
func (s Space) vehicleFromTail(tail []int) (VehicleRef, error) {
	v := VehicleRef{Airframe: s.baseAirframe()}
	i := 0
	if len(s.Airframes) > 0 {
		v.Airframe = s.Airframes[tail[i]]
		i++
	}
	a, err := catalog.AirframeByName(v.Airframe)
	if err != nil {
		return VehicleRef{}, fmt.Errorf("dse: %w", err)
	}
	v.Battery, v.Sensor = a.DefaultBattery, a.DefaultSensor
	if len(s.Batteries) > 0 {
		v.Battery = s.Batteries[tail[i]]
		i++
	}
	if len(s.Sensors) > 0 {
		v.Sensor = s.Sensors[tail[i]]
	}
	return v, nil
}

// DefaultSpace returns the paper's Table II space.
func DefaultSpace() Space {
	return Space{
		Layers:   policy.LayerChoices,
		Filters:  policy.FilterChoices,
		PERows:   []int{8, 16, 32, 64, 128, 256, 512, 1024},
		PECols:   []int{8, 16, 32, 64, 128, 256, 512, 1024},
		SRAMKB:   []int{32, 64, 128, 256, 512, 1024, 2048, 4096},
		Dataflow: systolic.OutputStationary,
		FreqMHz:  500,
		Template: policy.DefaultTemplate(),
	}
}

// Size returns the number of joint design points in the space.
func (s Space) Size() int64 {
	return s.ParamSpace().Size()
}

// Validate checks the space definition.
func (s Space) Validate() error {
	if len(s.Layers) == 0 || len(s.Filters) == 0 || len(s.PERows) == 0 ||
		len(s.PECols) == 0 || len(s.SRAMKB) == 0 {
		return fmt.Errorf("dse: empty dimension in space")
	}
	if err := s.ParamSpace().Validate(); err != nil {
		return fmt.Errorf("dse: %w", err)
	}
	for _, a := range s.Algorithms {
		if !airlearning.KnownAlgorithm(a) {
			return fmt.Errorf("dse: unknown algorithm %q", a)
		}
	}
	for _, a := range s.Airframes {
		if _, err := catalog.AirframeByName(a); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
	}
	for _, b := range s.Batteries {
		if _, err := catalog.BatteryByName(b); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
	}
	for _, sn := range s.Sensors {
		if _, err := catalog.SensorByName(sn); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
	}
	if s.HasVehicleAxes() {
		if _, err := catalog.AirframeByName(s.baseAirframe()); err != nil {
			return fmt.Errorf("dse: base airframe: %w", err)
		}
	}
	if s.FreqMHz <= 0 {
		return fmt.Errorf("dse: non-positive frequency")
	}
	return nil
}

// Bandwidth returns the DRAM bandwidth provisioned for an array size: larger
// accelerators ship with wider memory interfaces, from a 0.8 GB/s LPDDR
// floor up to a 12 GB/s ceiling.
func Bandwidth(pes int) float64 {
	bw := 0.8 + 4.5e-5*float64(pes)
	return math.Min(bw, 12.0)
}

// DesignPoint is one joint (model, accelerator) candidate — plus, when the
// space co-searches training algorithms, the algorithm the policy is
// trained with (empty means the legacy fixed-DQN calibration), and, when it
// co-searches vehicle axes, the fully-resolved loadout reference (the zero
// VehicleRef means the legacy SoC-only evaluation). All fields are
// comparable, so the point keys maps directly.
type DesignPoint struct {
	Hyper   policy.Hyper
	HW      systolic.Config
	Algo    string
	Vehicle VehicleRef
}

// String renders the design compactly; the algorithm and loadout tags appear
// only for co-search points so legacy renderings are byte-stable.
func (d DesignPoint) String() string {
	base := fmt.Sprintf("%s on %s", d.Hyper, d.HW)
	if d.Algo != "" {
		base = fmt.Sprintf("%s/%s on %s", d.Hyper, d.Algo, d.HW)
	}
	if d.Vehicle != (VehicleRef{}) {
		return base + " @ " + d.Vehicle.String()
	}
	return base
}

// design constructs the systolic config for raw choice values.
func (s Space) design(layers, filters, rows, cols, ifKB, fKB, ofKB int) DesignPoint {
	hw := systolic.Config{
		Rows: rows, Cols: cols,
		IfmapKB: ifKB, FilterKB: fKB, OfmapKB: ofKB,
		Dataflow: s.Dataflow, FreqMHz: s.FreqMHz,
		BandwidthGBps: Bandwidth(rows * cols),
	}
	return DesignPoint{Hyper: policy.Hyper{Layers: layers, Filters: filters}, HW: hw}
}

// Sample draws n distinct design points uniformly from the space, always
// including the space's corner designs (smallest and largest accelerator for
// each model extreme — per algorithm when co-searching) so the optimizer
// sees the full dynamic range. Sampling delegates to the generic parameter
// space; on the legacy axis list the draw sequence is bitwise-identical to
// the historical hard-coded sampler.
func (s Space) Sample(n int, seed int64) []DesignPoint {
	pts := s.ParamSpace().Sample(n, seed)
	out := make([]DesignPoint, len(pts))
	for i, p := range pts {
		d, err := s.FromPoint(p)
		if err != nil {
			panic(err) // points come from the space's own sampler: impossible
		}
		out[i] = d
	}
	return out
}

// Features encodes a design point as a normalized vector for the GP models:
// one dimension per axis of the parameter space, in axis order, using each
// axis's feature transform. On the legacy axis list this reproduces the
// historical 7-dim vector bit for bit; the algorithm axis (when present)
// contributes its categorical feature as an extra leading dimension.
func (s Space) Features(d DesignPoint) []float64 {
	ps := s.ParamSpace()
	raw := map[string]float64{
		AxisLayers:     float64(d.Hyper.Layers),
		AxisFilters:    float64(d.Hyper.Filters),
		AxisPERows:     float64(d.HW.Rows),
		AxisPECols:     float64(d.HW.Cols),
		AxisSRAMIfmap:  float64(d.HW.IfmapKB),
		AxisSRAMFilter: float64(d.HW.FilterKB),
		AxisSRAMOfmap:  float64(d.HW.OfmapKB),
	}
	out := make([]float64, len(ps.Axes))
	for i, a := range ps.Axes {
		if a.Kind == space.KindCat {
			switch a.Name {
			case AxisAirframe:
				out[i] = a.CatFeature(d.Vehicle.Airframe)
			case AxisBattery:
				out[i] = a.CatFeature(d.Vehicle.Battery)
			case AxisSensor:
				out[i] = a.CatFeature(d.Vehicle.Sensor)
			default:
				out[i] = a.CatFeature(d.Algo)
			}
			continue
		}
		out[i] = a.Normalize(raw[a.Name])
	}
	return out
}

// Evaluated is one scored design point. Designs carrying vehicle axes also
// hold the full-vehicle metrics in Vehicle (zero otherwise).
type Evaluated struct {
	Design      DesignPoint
	SuccessRate float64
	FPS         float64
	RuntimeSec  float64
	SoCPowerW   float64
	AccelPowerW float64
	Breakdown   power.Breakdown
	Vehicle     VehicleEval
}

// Objectives returns the minimization vector: the legacy
// [−success, power, runtime] for SoC-only designs, and
// [−success, total vehicle power, −missions] when the design carries a
// loadout — the SWaP-level trade the vehicle co-search ranks by.
func (e Evaluated) Objectives() []float64 {
	if e.Vehicle.Loadout != (VehicleRef{}) {
		return []float64{-e.SuccessRate, e.Vehicle.TotalPowerW, -e.Vehicle.Missions}
	}
	return []float64{-e.SuccessRate, e.SoCPowerW, e.RuntimeSec}
}

// EfficiencyFPSW returns compute efficiency in FPS per watt of SoC power.
func (e Evaluated) EfficiencyFPSW() float64 {
	if e.SoCPowerW <= 0 {
		return 0
	}
	return e.FPS / e.SoCPowerW
}

// Evaluator scores design points on the systolic-array cost model. It is
// safe for concurrent use, and built networks are shared per model. It keeps
// no record of what it scored: the search loop answers revisits, so every
// call runs the cost model (or the delegate).
type Evaluator struct {
	db      *airlearning.Database
	scen    airlearning.Scenario
	model   power.Model
	tmpl    policy.TemplateConfig
	workers int

	retry    fault.Policy
	injector *fault.Injector
	vp       VehicleParams // mission/thermal context for vehicle-axis designs

	// delegate, when non-nil, replaces the local evaluation with a remote
	// one (the grid coordinator's lease pool). Skip/failure accounting stays
	// here; retries, chaos injection and the actual cost-model run happen
	// wherever the delegate executes.
	delegate func(ctx context.Context, d DesignPoint) (Evaluated, error)

	instr     func(hw.Backend) hw.Backend // estimate-latency wrapper; nil when obs off
	cFailures *obs.Counter                // dse.eval.failures; nil when obs off

	netMu sync.Mutex
	nets  map[policy.Hyper]*policy.Network
}

// Option configures an Evaluator.
type Option func(*Evaluator)

// WithWorkers bounds the EvaluateEach worker pool; n <= 0 selects
// runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(ev *Evaluator) { ev.workers = n }
}

// WithTemplate sets the E2E model template networks are built from. The
// default is policy.DefaultTemplate().
func WithTemplate(t policy.TemplateConfig) Option {
	return func(ev *Evaluator) { ev.tmpl = t }
}

// NewEvaluator builds a concurrency-safe evaluator over a success-rate
// database for one deployment scenario, with a single attempt per design,
// no chaos injection and no telemetry; Request.NewEvaluator builds one
// configured from a request:
//
//	ev := dse.NewEvaluator(db, scen, pm, dse.WithWorkers(8))
func NewEvaluator(db *airlearning.Database, scen airlearning.Scenario, pm power.Model, opts ...Option) *Evaluator {
	ev := &Evaluator{
		db: db, scen: scen, model: pm,
		tmpl: policy.DefaultTemplate(),
		vp:   DefaultVehicleParams(),
		nets: map[policy.Hyper]*policy.Network{},
	}
	for _, opt := range opts {
		opt(ev)
	}
	return ev
}

// network returns the shared deployment network for a model, building it on
// first use.
func (ev *Evaluator) network(h policy.Hyper) (*policy.Network, error) {
	ev.netMu.Lock()
	defer ev.netMu.Unlock()
	if net, ok := ev.nets[h]; ok {
		return net, nil
	}
	net, err := policy.Build(h, ev.tmpl)
	if err != nil {
		return nil, fmt.Errorf("dse: build %v: %w", h, err)
	}
	ev.nets[h] = net
	return net, nil
}

// FromEstimate converts a hardware cost-model estimate into a scored design
// point — the single translation between the hw layer and Phase-2 scoring.
func FromEstimate(d DesignPoint, success float64, est hw.Estimate) Evaluated {
	return Evaluated{
		Design:      d,
		SuccessRate: success,
		FPS:         est.FPS,
		RuntimeSec:  est.RuntimeSec,
		SoCPowerW:   est.SoCPowerW,
		AccelPowerW: est.AccelPowerW,
		Breakdown:   est.Breakdown,
	}
}

// evaluate scores one design on the systolic-array backend. Estimation is a
// pure function of the design, so results are bit-identical regardless of
// which goroutine computed them or how often. The attempt index re-keys the
// chaos injector so injected faults clear (or persist) deterministically
// across retries; estimates are guarded against non-finite fields before
// they can reach the optimizer's models.
func (ev *Evaluator) evaluate(d DesignPoint, attempt int) (Evaluated, error) {
	net, err := ev.network(d.Hyper)
	if err != nil {
		return Evaluated{}, err
	}
	var backend hw.Backend = hw.SystolicBackend{Config: d.HW, Power: ev.model}
	if ev.injector != nil {
		backend = ev.injector.Backend(fmt.Sprintf("systolic|%s#%d", d, attempt), backend)
	}
	if ev.instr != nil {
		// Instrument outermost so injected faults count in the estimate
		// error/latency telemetry like real backend failures.
		backend = ev.instr(backend)
	}
	est, err := backend.Estimate(hw.NetworkWorkload(d.Hyper.String(), net))
	if err != nil {
		return Evaluated{}, fmt.Errorf("dse: estimate %v: %w", d, err)
	}
	success := 0.0
	if rec, ok := ev.db.Get(d.Hyper, ev.scen); ok {
		success = rec.SuccessRate
	}
	// Adjust the DQN-calibrated base rate for the design's training
	// algorithm; the empty (legacy) tag and "dqn" are the identity.
	success = airlearning.AlgorithmSuccess(d.Algo, d.Hyper, success)
	e := FromEstimate(d, success, est)
	if err := fault.CheckFinite("estimate",
		e.FPS, e.RuntimeSec, e.SoCPowerW, e.AccelPowerW, e.SuccessRate); err != nil {
		return Evaluated{}, fmt.Errorf("dse: %v: %w", d, err)
	}
	if d.Vehicle != (VehicleRef{}) {
		return ev.vehicleFinish(d, e)
	}
	return e, nil
}

// evaluateRetry runs one evaluation under the evaluator's retry policy with
// panic isolation. The zero policy performs exactly one attempt.
// base offsets every attempt index — a job re-issued under grid lease
// attempt n evaluates attempts n, n+1, ... so its fault surfaces (injector
// keys, fault.AttemptSeed derivations) are re-keyed instead of
// deterministically re-hitting the fault that killed the previous lease.
// base 0 is bitwise the pre-grid behavior.
func (ev *Evaluator) evaluateRetry(ctx context.Context, d DesignPoint, base int) (Evaluated, error) {
	policy := ev.retry
	if d.Vehicle != (VehicleRef{}) {
		// A typed infeasibility verdict is a definitive answer about the
		// loadout, not a transient fault: never burn retry attempts on it.
		policy = policy.NonRetryable(isInfeasible)
	}
	var e Evaluated
	err := fault.Retry(ctx, policy, func(_ context.Context, attempt int) error {
		var aerr error
		e, aerr = ev.evaluate(d, base+attempt)
		return aerr
	})
	if err != nil {
		return Evaluated{}, err
	}
	return e, nil
}

// Evaluate scores one design point. It is EvaluateContext without
// cancellation.
func (ev *Evaluator) Evaluate(d DesignPoint) (Evaluated, error) {
	return ev.EvaluateContext(context.Background(), d)
}

// EvaluateContext scores one design point.
func (ev *Evaluator) EvaluateContext(ctx context.Context, d DesignPoint) (Evaluated, error) {
	return ev.EvaluateAttempt(ctx, d, 0)
}

// EvaluateAttempt scores one design point with its attempt indices offset by
// base — the entry point grid workers run re-issued leases through, so lease
// attempt n re-keys the design's fault surfaces deterministically; a
// re-leased design is simply scored again. base 0 is exactly
// EvaluateContext. The design is scored locally under the retry policy, or
// through the delegate when one is installed. Either way a panic becomes
// this design's *fault.PanicError, and the terminal-failure accounting is
// identical: skips are answers, not faults, so only real failures count.
func (ev *Evaluator) EvaluateAttempt(ctx context.Context, d DesignPoint, base int) (Evaluated, error) {
	var e Evaluated
	var err error
	if ev.delegate != nil {
		err = fault.Call(func() error {
			var derr error
			e, derr = ev.delegate(ctx, d)
			return derr
		})
	} else {
		e, err = ev.evaluateRetry(ctx, d, base)
	}
	if err != nil {
		if !isInfeasible(err) {
			ev.cFailures.Inc()
		}
		return Evaluated{}, err
	}
	return e, nil
}

// EvaluateEach scores a batch of design points on the evaluator's bounded
// worker pool, isolating per-design failures: results and errors are
// index-aligned with ds (submission order), and only context cancellation
// returns a terminal error, wrapping ctx.Err(). Every Phase-2 design is
// scored through it.
func (ev *Evaluator) EvaluateEach(ctx context.Context, ds []DesignPoint) ([]Evaluated, []error, error) {
	es := make([]Evaluated, len(ds))
	errs := make([]error, len(ds))
	err := pool.Run(ctx, ev.workers, len(ds), func(i int) error {
		es[i], errs[i] = ev.EvaluateContext(ctx, ds[i])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return es, errs, nil
}

// Config controls a Phase-2 run.
type Config struct {
	CandidatePool int // design points sampled from the space
	BO            bayesopt.Config
	Seed          int64
	// ProbeCorners seeds the run with a deterministic sweep of accelerator
	// sizes for the scenario's highest-success model (the domain-knowledge
	// seeding §III-A describes), guaranteeing the evaluated set spans the
	// full power/performance range the paper's Fig. 3b and Fig. 7 show.
	ProbeCorners bool
}

// DefaultConfig returns a laptop-scale Phase-2 budget.
func DefaultConfig() Config {
	bo := bayesopt.DefaultConfig()
	bo.InitSamples = 24
	bo.Iterations = 72
	return Config{CandidatePool: 2048, BO: bo, Seed: 1, ProbeCorners: true}
}

// ProbeDesigns returns the deterministic accelerator sweep for one model:
// square arrays from the smallest to the largest Table II size crossed with
// the first, middle and last scratchpad sizes, each distinct size once.
func (s Space) ProbeDesigns(h policy.Hyper) []DesignPoint {
	var out []DesignPoint
	var srams []int
	for _, kb := range []int{s.SRAMKB[0], s.SRAMKB[len(s.SRAMKB)/2], s.SRAMKB[len(s.SRAMKB)-1]} {
		if !slices.Contains(srams, kb) {
			srams = append(srams, kb)
		}
	}
	for _, side := range s.PERows {
		for _, kb := range srams {
			out = append(out, s.design(h.Layers, h.Filters, side, side, kb, kb, kb))
		}
	}
	return out
}

// probeVehicleRef anchors probe designs inside a vehicle-axis space: the
// first choice of each searched axis (axis lists are normalized, so this is
// deterministic), defaults from the base airframe otherwise.
func (s Space) probeVehicleRef() (VehicleRef, error) {
	v := VehicleRef{Airframe: s.baseAirframe()}
	if len(s.Airframes) > 0 {
		v.Airframe = s.Airframes[0]
	}
	a, err := catalog.AirframeByName(v.Airframe)
	if err != nil {
		return VehicleRef{}, fmt.Errorf("dse: %w", err)
	}
	v.Battery, v.Sensor = a.DefaultBattery, a.DefaultSensor
	if len(s.Batteries) > 0 {
		v.Battery = s.Batteries[0]
	}
	if len(s.Sensors) > 0 {
		v.Sensor = s.Sensors[0]
	}
	return v, nil
}

// probeSweep returns the deterministic probe designs for the run: the
// legacy single sweep for the database's best model, or — when the space
// co-searches training algorithms — one sweep per algorithm anchored at
// that algorithm's best model, so every algorithm's power/performance range
// is represented in the evaluated set. In a vehicle-axis space every probe
// carries the anchor loadout, so probe objectives live in the same
// (success, vehicle power, missions) space as the searched designs.
func probeSweep(space Space, db *airlearning.Database, scen airlearning.Scenario) []DesignPoint {
	var out []DesignPoint
	if len(space.Algorithms) == 0 {
		if best, ok := db.Best(scen); ok {
			out = space.ProbeDesigns(best.Hyper)
		}
	} else {
		for _, alg := range space.Algorithms {
			h, _, ok := airlearning.BestHyperFor(db, scen, alg)
			if !ok {
				continue
			}
			for _, d := range space.ProbeDesigns(h) {
				d.Algo = alg
				out = append(out, d)
			}
		}
	}
	if space.HasVehicleAxes() && len(out) > 0 {
		v, err := space.probeVehicleRef()
		if err != nil {
			return nil
		}
		for i := range out {
			out[i].Vehicle = v
		}
	}
	return out
}

// Result is the Phase-2 output.
type Result struct {
	Scenario  airlearning.Scenario
	Evaluated []Evaluated
	ParetoIdx []int // indices into Evaluated on the 3-objective front

	// Conventional-DSE selections (paper §V-B): highest throughput, lowest
	// power, highest efficiency — all restricted to designs running a
	// top-success model.
	HT, LP, HE int

	// CacheMisses counts the designs the search sent to the evaluator,
	// failed and skipped ones included. The search answers every revisit
	// itself, so this is the number of designs the run scored.
	CacheMisses int64

	// Failures records every design whose evaluation failed after retries,
	// in deterministic record order — populated only when the request ran
	// with a positive FailureBudget (fail-fast runs abort at the first
	// failing batch instead). Failed designs appear nowhere in Evaluated;
	// Pareto extraction and the optimizer's models are built from survivors
	// only.
	Failures []fault.Failure

	// Skips records every design whose loadout failed the catalog
	// feasibility check, in deterministic record order. A skip is a typed
	// answer about the design space — "this loadout cannot fly this
	// accelerator" — not a fault: skipped designs are never scored, never
	// retried, never in Failures, and don't count against failure budgets.
	Skips []Skip
}

// Pareto returns the Pareto-front designs.
func (r *Result) Pareto() []Evaluated {
	out := make([]Evaluated, 0, len(r.ParetoIdx))
	for _, i := range r.ParetoIdx {
		out = append(out, r.Evaluated[i])
	}
	return out
}

// TopSuccess returns the indices of evaluated designs whose success rate is
// within eps of the best — the filter Phase 3 applies before the F-1 step.
func (r *Result) TopSuccess(eps float64) []int {
	best := 0.0
	for _, e := range r.Evaluated {
		if e.SuccessRate > best {
			best = e.SuccessRate
		}
	}
	var out []int
	for i, e := range r.Evaluated {
		if e.SuccessRate >= best-eps {
			out = append(out, i)
		}
	}
	return out
}

// labelConventional picks HT/LP/HE among top-success designs.
func (r *Result) labelConventional() {
	top := r.TopSuccess(0.02)
	if len(top) == 0 {
		r.HT, r.LP, r.HE = -1, -1, -1
		return
	}
	r.HT, r.LP, r.HE = top[0], top[0], top[0]
	for _, i := range top {
		e := r.Evaluated[i]
		if e.FPS > r.Evaluated[r.HT].FPS {
			r.HT = i
		}
		if e.SoCPowerW < r.Evaluated[r.LP].SoCPowerW {
			r.LP = i
		}
		if e.EfficiencyFPSW() > r.Evaluated[r.HE].EfficiencyFPSW() {
			r.HE = i
		}
	}
}
