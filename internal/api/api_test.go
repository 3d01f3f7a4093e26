package api

import (
	"math"
	"strings"
	"testing"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/core"
	"autopilot/internal/fault"
	"autopilot/internal/rl"
	"autopilot/internal/uav"
)

func TestParseUAV(t *testing.T) {
	cases := []struct {
		in    string
		class uav.Class
	}{
		{"mini", uav.Mini}, {"Pelican", uav.Mini},
		{"micro", uav.Micro}, {"spark", uav.Micro},
		{"NANO", uav.Nano},
	}
	for _, c := range cases {
		p, err := ParseUAV(c.in)
		if err != nil {
			t.Fatalf("ParseUAV(%q): %v", c.in, err)
		}
		if p.Class != c.class {
			t.Errorf("ParseUAV(%q).Class = %v, want %v", c.in, p.Class, c.class)
		}
	}
	if _, err := ParseUAV("blimp"); err == nil {
		t.Error("ParseUAV(blimp) did not fail")
	}
}

func TestParseScenario(t *testing.T) {
	cases := []struct {
		in   string
		want airlearning.Scenario
	}{
		{"low", airlearning.LowObstacle},
		{"medium", airlearning.MediumObstacle}, {"med", airlearning.MediumObstacle},
		{"DENSE", airlearning.DenseObstacle},
	}
	for _, c := range cases {
		s, err := ParseScenario(c.in)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", c.in, err)
		}
		if s != c.want {
			t.Errorf("ParseScenario(%q) = %v, want %v", c.in, s, c.want)
		}
	}
	if _, err := ParseScenario("urban"); err == nil {
		t.Error("ParseScenario(urban) did not fail")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for in, want := range map[string]rl.Algorithm{"": rl.AlgDQN, "dqn": rl.AlgDQN, "REINFORCE": rl.AlgReinforce} {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("ppo"); err == nil {
		t.Error("ParseAlgorithm(ppo) did not fail")
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := CoDesignRequest{}.Normalized()
	if n.Version != Version || n.UAVClass != "nano" || n.Scenario != "dense" || n.Seed != 1 {
		t.Fatalf("defaults: %+v", n)
	}
	if n.Constraints.CandidatePool != 2048 || n.Constraints.BOIterations != 72 || n.Constraints.Retries != 1 {
		t.Fatalf("constraint defaults: %+v", n.Constraints)
	}
	if n.Train != nil {
		t.Fatal("default request must not train")
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("default request invalid: %v", err)
	}
}

func TestNormalizedCanonicalizesAliases(t *testing.T) {
	n := CoDesignRequest{UAVClass: "Pelican", Scenario: "MED"}.Normalized()
	if n.UAVClass != "mini" || n.Scenario != "medium" {
		t.Fatalf("aliases not canonicalized: uav=%q scenario=%q", n.UAVClass, n.Scenario)
	}
	ts := CoDesignRequest{Train: &TrainSpec{}}.Normalized().Train
	if ts.Algorithm != "dqn" || ts.Episodes != 150 || ts.EvalEpisodes != rl.DefaultTrainConfig().EvalEpisodes {
		t.Fatalf("train defaults: %+v", ts)
	}
}

func TestHashAliasAndWorkerInvariance(t *testing.T) {
	base := CoDesignRequest{UAVClass: "mini", Scenario: "medium"}
	alias := CoDesignRequest{UAVClass: "pelican", Scenario: "med"}
	if base.Hash() != alias.Hash() {
		t.Error("alias spelling changed the hash")
	}
	w8 := base
	w8.Constraints.Workers = 8
	if base.Hash() != w8.Hash() {
		t.Error("worker count changed the hash; results are worker-invariant")
	}
	seeded := base
	seeded.Seed = 2
	if base.Hash() == seeded.Hash() {
		t.Error("different seeds share a hash")
	}
	trained := base
	trained.Train = &TrainSpec{}
	if base.Hash() == trained.Hash() {
		t.Error("surrogate and trained requests share a hash")
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []struct {
		name string
		req  CoDesignRequest
	}{
		{"version", CoDesignRequest{Version: "v0"}},
		{"uav", CoDesignRequest{UAVClass: "blimp"}},
		{"scenario", CoDesignRequest{Scenario: "urban"}},
		{"pool", CoDesignRequest{Constraints: Constraints{CandidatePool: 1}}},
		{"bo", CoDesignRequest{Constraints: Constraints{BOIterations: -1}}},
		{"fps", CoDesignRequest{Constraints: Constraints{SensorFPS: -30}}},
		{"fps NaN", CoDesignRequest{Constraints: Constraints{SensorFPS: math.NaN()}}},
		{"fps Inf", CoDesignRequest{Constraints: Constraints{SensorFPS: math.Inf(1)}}},
		{"timeout", CoDesignRequest{Constraints: Constraints{JobTimeoutMS: -5}}},
		{"budget", CoDesignRequest{Constraints: Constraints{FailureBudget: 1.5}}},
		{"budget NaN", CoDesignRequest{Constraints: Constraints{FailureBudget: math.NaN()}}},
		{"algorithm", CoDesignRequest{Train: &TrainSpec{Algorithm: "ppo"}}},
		{"episodes", CoDesignRequest{Train: &TrainSpec{Episodes: -1}}},
	}
	for _, c := range bad {
		if err := c.req.Validate(); err == nil {
			t.Errorf("%s: invalid request accepted", c.name)
		}
	}
}

// TestSpecMatchesCLIWiring pins the contract the server's bitwise-identity
// guarantee rests on: api.Spec() produces exactly the Spec cmd/autopilot
// builds from equivalent flags — including the subtlety that -seed feeds
// Phase 2 only, never the Phase-1 training config.
func TestSpecMatchesCLIWiring(t *testing.T) {
	req := CoDesignRequest{
		UAVClass: "nano", Scenario: "dense", Seed: 7,
		Constraints: Constraints{CandidatePool: 512, BOIterations: 9, SensorFPS: 45, Workers: 3},
	}
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	want.SensorFPS = 45
	want.Phase2.CandidatePool = 512
	want.Phase2.BO.Iterations = 9
	want.Phase2.Seed = 7
	want.Phase2.BO.Seed = 7
	want.Workers = 3
	want.Retries = 1

	if spec.Platform.Name != want.Platform.Name || spec.Scenario != want.Scenario {
		t.Fatalf("platform/scenario: %s/%v", spec.Platform.Name, spec.Scenario)
	}
	if spec.Phase2 != want.Phase2 {
		t.Fatalf("Phase2 = %+v, want %+v", spec.Phase2, want.Phase2)
	}
	if spec.SensorFPS != want.SensorFPS || spec.Workers != want.Workers || spec.Retries != want.Retries {
		t.Fatalf("spec knobs: %+v", spec)
	}
	if spec.TrainCfg != want.TrainCfg {
		t.Fatalf("surrogate run must keep the default TrainCfg; got %+v", spec.TrainCfg)
	}
	if spec.Phase1Mode != want.Phase1Mode || spec.TrainHypers != nil {
		t.Fatal("surrogate run must not enable training")
	}

	// Trained run: episodes override only, hypers from the shared slice.
	treq := req
	treq.Train = &TrainSpec{Episodes: 40}
	tspec, err := treq.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if tspec.Phase1Mode != core.Phase1Train {
		t.Fatal("train spec did not enable Phase1Train")
	}
	wcfg := rl.DefaultTrainConfig()
	wcfg.Episodes = 40
	if tspec.TrainCfg != wcfg {
		t.Fatalf("TrainCfg = %+v, want %+v (seed must stay the engine default)", tspec.TrainCfg, wcfg)
	}
	if len(tspec.TrainHypers) != len(TrainHypers()) {
		t.Fatalf("TrainHypers = %v", tspec.TrainHypers)
	}
}

func TestRetryPolicy(t *testing.T) {
	if p := (Constraints{Retries: 1}).RetryPolicy(); p.Attempts != 0 || p.Timeout != 0 || p.BaseDelay != 0 {
		t.Fatalf("single attempt, no timeout must be the zero policy; got %+v", p)
	}
	p := Constraints{Retries: 3, JobTimeoutMS: 1500}.RetryPolicy()
	if p.Attempts != 3 || p.Timeout != 1500*time.Millisecond {
		t.Fatalf("policy = %+v", p)
	}
	if p.BaseDelay != fault.DefaultPolicy().BaseDelay {
		t.Fatal("retry policy must keep the default backoff schedule")
	}
}

func TestPhase2RequestMatchesCLIWiring(t *testing.T) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	req := CoDesignRequest{Scenario: "med", Seed: 5, Constraints: Constraints{CandidatePool: 256, BOIterations: 6, Workers: 2}}
	p2, err := req.Phase2Request(db)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Scenario != airlearning.MediumObstacle || p2.DB != db || p2.Workers != 2 {
		t.Fatalf("request = %+v", p2)
	}
	if p2.Config.CandidatePool != 256 || p2.Config.BO.Iterations != 6 || p2.Config.Seed != 5 || p2.Config.BO.Seed != 5 {
		t.Fatalf("config = %+v", p2.Config)
	}
}

func TestManifestSections(t *testing.T) {
	req := CoDesignRequest{UAVClass: "spark", Seed: 3, Constraints: Constraints{Workers: 4}}
	cfg := req.ManifestConfig()
	for _, k := range []string{"uav", "scenario", "pool", "bo_iters", "workers", "train", "retries", "failure_budget"} {
		if _, ok := cfg[k]; !ok {
			t.Errorf("manifest config missing key %q", k)
		}
	}
	if cfg["uav"] != "micro" {
		t.Errorf("manifest uav = %v, want canonical micro", cfg["uav"])
	}
	if seeds := req.ManifestSeeds(); seeds["seed"] != 3 {
		t.Errorf("manifest seeds = %v", seeds)
	}
}

func TestValidateErrorMentionsField(t *testing.T) {
	err := CoDesignRequest{UAVClass: "blimp"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "blimp") {
		t.Fatalf("err = %v", err)
	}
}
