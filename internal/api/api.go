// Package api is AutoPilot's typed public contract: the versioned request
// and response structs shared by the cmd/autopilotd job server, the three
// CLIs, and the tests. A CoDesignRequest names a co-design query the way the
// paper's §III-A task specification does — UAV class, deployment scenario,
// search budgets, fault posture — in plain JSON-serializable terms; this
// package owns the single translation from that contract onto the internal
// pipeline types (core.Spec, dse.Request, fault.Policy), so flag-level and
// HTTP-level validation cannot drift.
//
// Requests are content-addressed: Hash returns the sha256 of the normalized
// request with result-invariant fields (worker count) masked out, which is
// the key the server's process-wide result cache and on-disk result store
// use. Two requests with the same hash are guaranteed the same bitwise
// result by the pipeline's determinism contract.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/rl"
	"autopilot/internal/uav"
)

// Version is the current contract version. Requests with an empty version
// are normalized to it; unknown versions are rejected by Validate.
const Version = "v1"

// Constraints bound a co-design run: search budgets, parallelism, and the
// fault posture. The zero value means "server defaults" for every field.
type Constraints struct {
	// CandidatePool is the Phase-2 candidate pool size (default 2048).
	CandidatePool int `json:"candidate_pool,omitempty"`
	// BOIterations is the Phase-2 Bayesian-optimization budget (default 72).
	BOIterations int `json:"bo_iterations,omitempty"`
	// SensorFPS caps the sensor frame rate; 0 selects the platform maximum.
	SensorFPS float64 `json:"sensor_fps,omitempty"`
	// Workers bounds the evaluation/training worker pools and the Phase-2
	// candidate screen; 0 selects all CPUs. Results are bitwise identical at
	// any worker count, so this field is excluded from the request hash.
	Workers int `json:"workers,omitempty"`
	// Retries is the attempt budget per training job / evaluation; values
	// <= 1 mean a single attempt.
	Retries int `json:"retries,omitempty"`
	// JobTimeoutMS bounds each attempt in milliseconds; 0 means unbounded.
	JobTimeoutMS int64 `json:"job_timeout_ms,omitempty"`
	// FailureBudget is the fraction of jobs allowed to fail after retries
	// (0 = fail-fast).
	FailureBudget float64 `json:"failure_budget,omitempty"`
}

// TrainSpec switches Phase 1 from the calibrated surrogate to real RL
// training. Its presence on a request is the switch; the zero value trains
// with the CLI defaults.
type TrainSpec struct {
	// Algorithm is "dqn" (default) or "reinforce".
	Algorithm string `json:"algorithm,omitempty"`
	// Episodes is the RL budget per policy (default 150, the -train CLI
	// default); EvalEpisodes the validation rollouts (default 50).
	Episodes     int `json:"episodes,omitempty"`
	EvalEpisodes int `json:"eval_episodes,omitempty"`
	// Checkpoint makes the training sweep resumable via a database snapshot
	// file. Local paths only — the job server rejects requests that set it.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// CoDesignRequest is one co-design query: run the three-phase pipeline for
// a UAV class and deployment scenario under the given constraints. The zero
// value normalizes to the default nano/dense query.
type CoDesignRequest struct {
	// Version is the contract version; empty means the current Version.
	Version string `json:"version,omitempty"`
	// UAVClass is "mini" (AscTec Pelican), "micro" (DJI Spark), or "nano"
	// (the Zhang et al. nano platform). Aliases "pelican" and "spark" are
	// accepted and normalized.
	UAVClass string `json:"uav,omitempty"`
	// Scenario is the deployment scenario: "low", "medium", or "dense".
	Scenario string `json:"scenario,omitempty"`
	// Seed is the Phase-2 random seed (default 1). Phase-1 training keeps
	// its own engine default so surrogate and trained runs stay comparable
	// with the historical CLI behavior.
	Seed        int64       `json:"seed,omitempty"`
	Constraints Constraints `json:"constraints"`
	// Train, when non-nil, runs Phase 1 with real RL training instead of the
	// surrogate.
	Train *TrainSpec `json:"train,omitempty"`
	// Space, when non-nil, overrides axes of the Phase-2 search space —
	// including the categorical algorithm axis that turns the run into an
	// algorithm–SoC co-search. nil (and any spelling of the default grid)
	// normalizes to the legacy Table II space, preserving legacy hashes.
	Space *SpaceSpec `json:"space,omitempty"`
	// Vehicle, when non-nil, opens catalog components (airframe, battery,
	// sensor) as Phase-2 vehicle axes, turning the run into a
	// SWaP-constrained full-vehicle co-design. nil (and a block that opens
	// no axis) normalizes to the legacy fixed-platform pipeline, preserving
	// legacy hashes.
	Vehicle *VehicleSpec `json:"vehicle,omitempty"`
	// Grid, when non-nil, shards the Phase-2 sweep across worker processes
	// through the internal/grid coordinator. Like Workers it is pure
	// execution topology — results are bitwise identical with or without it —
	// so it is masked out of the request hash.
	Grid *GridSpec `json:"grid,omitempty"`
}

// ParseUAV resolves a UAV class name (or alias) to its platform.
func ParseUAV(s string) (uav.Platform, error) {
	switch strings.ToLower(s) {
	case "mini", "pelican":
		return uav.AscTecPelican(), nil
	case "micro", "spark":
		return uav.DJISpark(), nil
	case "nano":
		return uav.ZhangNano(), nil
	default:
		return uav.Platform{}, fmt.Errorf("unknown uav %q (want mini|micro|nano)", s)
	}
}

// ParseScenario resolves a deployment-scenario name.
func ParseScenario(s string) (airlearning.Scenario, error) {
	switch strings.ToLower(s) {
	case "low":
		return airlearning.LowObstacle, nil
	case "medium", "med":
		return airlearning.MediumObstacle, nil
	case "dense":
		return airlearning.DenseObstacle, nil
	default:
		return 0, fmt.Errorf("unknown scenario %q (want low|medium|dense)", s)
	}
}

// ParseAlgorithm resolves a Phase-1 training algorithm name.
func ParseAlgorithm(s string) (rl.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "dqn":
		return rl.AlgDQN, nil
	case "reinforce":
		return rl.AlgReinforce, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want dqn|reinforce)", s)
	}
}

// canonicalUAV maps accepted platform aliases to the canonical class name.
func canonicalUAV(s string) string {
	switch strings.ToLower(s) {
	case "pelican":
		return "mini"
	case "spark":
		return "micro"
	default:
		return strings.ToLower(s)
	}
}

// canonicalScenario maps accepted scenario aliases to the canonical name.
func canonicalScenario(s string) string {
	switch strings.ToLower(s) {
	case "med":
		return "medium"
	default:
		return strings.ToLower(s)
	}
}

// Normalized returns the request with every defaulted field made explicit
// and aliases canonicalized, so equivalent requests normalize to identical
// values (and therefore identical hashes). It does not validate; a request
// with an unknown UAV class normalizes to that same unknown class.
func (r CoDesignRequest) Normalized() CoDesignRequest {
	n := r
	if n.Version == "" {
		n.Version = Version
	}
	if n.UAVClass == "" {
		n.UAVClass = "nano"
	}
	n.UAVClass = canonicalUAV(n.UAVClass)
	if n.Scenario == "" {
		n.Scenario = "dense"
	}
	n.Scenario = canonicalScenario(n.Scenario)
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Constraints.CandidatePool == 0 {
		n.Constraints.CandidatePool = 2048
	}
	if n.Constraints.BOIterations == 0 {
		n.Constraints.BOIterations = 72
	}
	if n.Constraints.Retries < 1 {
		n.Constraints.Retries = 1
	}
	if n.Train != nil {
		ts := *n.Train
		if ts.Algorithm == "" {
			ts.Algorithm = "dqn"
		}
		ts.Algorithm = strings.ToLower(ts.Algorithm)
		if ts.Episodes == 0 {
			ts.Episodes = 150
		}
		if ts.EvalEpisodes == 0 {
			ts.EvalEpisodes = rl.DefaultTrainConfig().EvalEpisodes
		}
		n.Train = &ts
	}
	n.Space = normalizedSpace(n.Space)
	n.Vehicle = normalizedVehicle(n.Vehicle)
	n.Grid = normalizedGrid(n.Grid)
	return n
}

// Validate checks the request against the contract — the one validation
// path shared by flag parsing and the HTTP surface.
func (r CoDesignRequest) Validate() error {
	n := r.Normalized()
	if n.Version != Version {
		return fmt.Errorf("api: unsupported version %q (want %q)", n.Version, Version)
	}
	if _, err := ParseUAV(n.UAVClass); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if _, err := ParseScenario(n.Scenario); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	c := n.Constraints
	if c.CandidatePool < 2 {
		return fmt.Errorf("api: candidate pool %d too small (need >= 2)", c.CandidatePool)
	}
	if c.BOIterations < 1 {
		return fmt.Errorf("api: non-positive BO iteration budget %d", c.BOIterations)
	}
	if c.SensorFPS < 0 || math.IsNaN(c.SensorFPS) || math.IsInf(c.SensorFPS, 0) {
		return fmt.Errorf("api: sensor FPS %g is not a finite, non-negative rate", c.SensorFPS)
	}
	if c.JobTimeoutMS < 0 {
		return fmt.Errorf("api: negative job timeout %dms", c.JobTimeoutMS)
	}
	if math.IsNaN(c.FailureBudget) || c.FailureBudget < 0 || c.FailureBudget > 1 {
		return fmt.Errorf("api: failure budget %g outside [0,1]", c.FailureBudget)
	}
	if n.Train != nil {
		if _, err := ParseAlgorithm(n.Train.Algorithm); err != nil {
			return fmt.Errorf("api: %w", err)
		}
		if n.Train.Episodes < 1 || n.Train.EvalEpisodes < 1 {
			return fmt.Errorf("api: non-positive training budget (episodes %d, eval %d)",
				n.Train.Episodes, n.Train.EvalEpisodes)
		}
	}
	// Duplicate axes are checked on the raw block: normalization may fold
	// one duplicate into its default and hide the conflict.
	if r.Space != nil {
		seen := map[string]bool{}
		for _, a := range r.Space.Axes {
			name := strings.ToLower(strings.TrimSpace(a.Name))
			if seen[name] {
				return &SpaceError{Axis: name, Reason: "duplicate axis"}
			}
			seen[name] = true
		}
	}
	if err := validateSpace(n.Space, n.Train != nil); err != nil {
		return err
	}
	if err := validateVehicle(n.Vehicle); err != nil {
		return err
	}
	if err := validateGrid(n.Grid); err != nil {
		return err
	}
	return nil
}

// Hash returns the request's content address: the hex sha256 of its
// canonical JSON with result-invariant fields masked. Worker count never
// changes results (the pipeline is bitwise deterministic at any
// parallelism), so requests differing only in Workers share a hash — and a
// cache entry.
func (r CoDesignRequest) Hash() string {
	n := r.Normalized()
	n.Constraints.Workers = 0
	// The grid block only describes how the sweep is executed, never what it
	// computes; sharded and single-process runs share a cache entry.
	n.Grid = nil
	data, err := json.Marshal(n)
	if err != nil {
		// Marshaling a plain struct of scalars cannot fail; guard anyway.
		data = []byte(fmt.Sprintf("%+v", n))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JobTimeout returns the per-attempt timeout as a duration.
func (c Constraints) JobTimeout() time.Duration {
	return time.Duration(c.JobTimeoutMS) * time.Millisecond
}

// ParseJobTimeoutFlag converts a CLI -job-timeout value to JobTimeoutMS. It
// rejects a negative value and one that is not a whole number of
// milliseconds, which the field would round down (below 1 ms, to 0: no
// timeout at all).
func ParseJobTimeoutFlag(d time.Duration) (int64, error) {
	if d < 0 || d%time.Millisecond != 0 {
		return 0, fmt.Errorf("api: -job-timeout %v is not a whole, non-negative number of milliseconds", d)
	}
	return d.Milliseconds(), nil
}

// RetryPolicy assembles the request's fault.Policy (see fault.NewPolicy).
func (c Constraints) RetryPolicy() fault.Policy {
	return fault.NewPolicy(c.Retries, c.JobTimeout())
}

// TrainHypers is the representative slice of the template family trained
// when a request asks for real Phase-1 training — small enough to keep
// trained runs tractable, spread enough to exercise the search space. This
// is the single definition the CLI and the server share.
func TrainHypers() []policy.Hyper {
	return []policy.Hyper{
		{Layers: 2, Filters: 32}, {Layers: 4, Filters: 48}, {Layers: 7, Filters: 48},
	}
}

// Spec translates the request into the orchestrator's specification — the
// one conversion cmd/autopilot and cmd/autopilotd share, so an HTTP job is
// bitwise identical to the same CLI run.
func (r CoDesignRequest) Spec() (core.Spec, error) {
	if err := r.Validate(); err != nil {
		return core.Spec{}, err
	}
	n := r.Normalized()
	plat, err := ParseUAV(n.UAVClass)
	if err != nil {
		return core.Spec{}, err
	}
	scen, err := ParseScenario(n.Scenario)
	if err != nil {
		return core.Spec{}, err
	}
	spec := core.DefaultSpec(plat, scen)
	spec.Space, err = r.SearchSpace()
	if err != nil {
		return core.Spec{}, err
	}
	spec.SensorFPS = n.Constraints.SensorFPS
	spec.Phase2.CandidatePool = n.Constraints.CandidatePool
	spec.Phase2.BO.Iterations = n.Constraints.BOIterations
	spec.Phase2.Seed = n.Seed
	spec.Phase2.BO.Seed = n.Seed
	spec.Workers = n.Constraints.Workers
	spec.Retries = n.Constraints.Retries
	spec.JobTimeout = n.Constraints.JobTimeout()
	spec.FailureBudget = n.Constraints.FailureBudget
	if n.Train != nil {
		alg, err := ParseAlgorithm(n.Train.Algorithm)
		if err != nil {
			return core.Spec{}, err
		}
		spec.Phase1Mode = core.Phase1Train
		spec.TrainCfg.Algorithm = alg
		spec.TrainCfg.Episodes = n.Train.Episodes
		spec.TrainCfg.EvalEpisodes = n.Train.EvalEpisodes
		spec.TrainCheckpoint = n.Train.Checkpoint
		spec.TrainHypers = TrainHypers()
	}
	return spec, nil
}

// Phase2Request translates the request into a standalone Phase-2 DSE
// request against db — the conversion cmd/dse runs on.
func (r CoDesignRequest) Phase2Request(db *airlearning.Database) (dse.Request, error) {
	if err := r.Validate(); err != nil {
		return dse.Request{}, err
	}
	n := r.Normalized()
	scen, err := ParseScenario(n.Scenario)
	if err != nil {
		return dse.Request{}, err
	}
	cfg := dse.DefaultConfig()
	cfg.CandidatePool = n.Constraints.CandidatePool
	cfg.BO.Iterations = n.Constraints.BOIterations
	cfg.Seed = n.Seed
	cfg.BO.Seed = n.Seed
	sp, err := r.SearchSpace()
	if err != nil {
		return dse.Request{}, err
	}
	return dse.Request{
		Space:         sp,
		DB:            db,
		Scenario:      scen,
		Power:         power.Default(),
		Config:        cfg,
		Workers:       n.Constraints.Workers,
		Retry:         n.Constraints.RetryPolicy(),
		JobTimeout:    n.Constraints.JobTimeout(),
		FailureBudget: n.Constraints.FailureBudget,
	}, nil
}

// ManifestConfig returns the resolved-configuration section of a run
// manifest for this request — the same keys, in the same meaning, whether
// the run was a CLI invocation or a server job, so the deterministic
// sections of their manifests compare equal.
func (r CoDesignRequest) ManifestConfig() map[string]any {
	n := r.Normalized()
	algorithms := ""
	if n.Space != nil {
		for _, a := range n.Space.Axes {
			if a.Name == AxisAlgorithm {
				algorithms = strings.Join(a.Choices, ",")
			}
		}
	}
	return map[string]any{
		"uav":            n.UAVClass,
		"scenario":       n.Scenario,
		"pool":           n.Constraints.CandidatePool,
		"bo_iters":       n.Constraints.BOIterations,
		"workers":        n.Constraints.Workers,
		"train":          n.Train != nil,
		"retries":        n.Constraints.Retries,
		"failure_budget": n.Constraints.FailureBudget,
		"algorithms":     algorithms,
		"vehicle_axes":   openVehicleAxes(n.Vehicle),
	}
}

// ManifestSeeds returns the named-seed section of a run manifest.
func (r CoDesignRequest) ManifestSeeds() map[string]int64 {
	return map[string]int64{"seed": r.Normalized().Seed}
}
