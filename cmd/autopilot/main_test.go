package main

import (
	"strings"
	"testing"
	"time"

	"autopilot/internal/api"
	"autopilot/internal/core"
)

// TestOptionsRequest pins the flag→contract translation: defaults produce
// the canonical default request, aliases are accepted, and unknown values
// are rejected through the shared api surface.
func TestOptionsRequest(t *testing.T) {
	defaults := options{UAV: "nano", Scenario: "dense", Pool: 2048, BOIters: 72, Seed: 1, Retries: 1}
	req := mustRequest(t, defaults)
	if err := req.Validate(); err != nil {
		t.Fatalf("default flags invalid: %v", err)
	}
	if req.Train != nil {
		t.Fatal("default flags must not train")
	}
	if req.Space != nil {
		t.Fatal("default flags must not set a space block")
	}

	alias := defaults
	alias.UAV, alias.Scenario = "Pelican", "MED"
	n := mustRequest(t, alias).Normalized()
	if n.UAVClass != "mini" || n.Scenario != "medium" {
		t.Fatalf("aliases normalized to uav=%q scenario=%q", n.UAVClass, n.Scenario)
	}
	if mustRequest(t, alias).Validate() != nil {
		t.Fatal("alias flags rejected")
	}

	bad := defaults
	bad.UAV = "blimp"
	if mustRequest(t, bad).Validate() == nil {
		t.Fatal("unknown uav accepted")
	}
	bad = defaults
	bad.Scenario = "urban"
	if mustRequest(t, bad).Validate() == nil {
		t.Fatal("unknown scenario accepted")
	}

	timed := defaults
	timed.JobTimeout = 1500 * time.Millisecond
	if ms := mustRequest(t, timed).Constraints.JobTimeoutMS; ms != 1500 {
		t.Fatalf("-job-timeout 1.5s became %d ms", ms)
	}
	// The request carries whole milliseconds, so a finer timeout would be
	// rounded down, and one below 1 ms would silently mean no timeout.
	for _, d := range []time.Duration{500 * time.Microsecond, 1500 * time.Microsecond, -time.Millisecond} {
		timed.JobTimeout = d
		if _, err := timed.request(); err == nil || !strings.Contains(err.Error(), "-job-timeout") {
			t.Errorf("-job-timeout %v: err = %v, want a rejection naming the flag", d, err)
		}
	}
}

func mustRequest(t *testing.T, o options) api.CoDesignRequest {
	t.Helper()
	req, err := o.request()
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestOptionsSpaceFlags pins the co-search flag wiring: -algorithms and
// -axis assemble the request's space block, and malformed axes are rejected
// before the request is built.
func TestOptionsSpaceFlags(t *testing.T) {
	o := options{UAV: "nano", Scenario: "dense", Pool: 2048, BOIters: 72, Seed: 1, Retries: 1,
		Algorithms: "dqn,reinforce", Axes: multiFlag{"layers=2,4,7"}}
	req := mustRequest(t, o)
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	sp, err := req.SearchSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Algorithms) != 2 {
		t.Fatalf("algorithms = %v", sp.Algorithms)
	}
	if len(sp.Layers) != 3 || sp.Layers[0] != 2 {
		t.Fatalf("layers = %v", sp.Layers)
	}

	bad := o
	bad.Axes = multiFlag{"layers"}
	if _, err := bad.request(); err == nil {
		t.Fatal("malformed -axis accepted")
	}
}

// TestOptionsTrainSpec pins the trained-run wiring the CLI has always had:
// -train enables Phase1Train with the episode budget, checkpoint path, and
// the shared representative hyper slice.
func TestOptionsTrainSpec(t *testing.T) {
	o := options{UAV: "nano", Scenario: "dense", Pool: 2048, BOIters: 72, Seed: 1, Retries: 1,
		Train: true, Episodes: 40, TrainDB: "ckpt.json", JobTimeout: 2 * time.Second}
	spec, err := mustRequest(t, o).Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Phase1Mode != core.Phase1Train {
		t.Fatal("-train did not enable Phase1Train")
	}
	if spec.TrainCfg.Episodes != 40 || spec.TrainCheckpoint != "ckpt.json" {
		t.Fatalf("train wiring: cfg=%+v checkpoint=%q", spec.TrainCfg, spec.TrainCheckpoint)
	}
	if len(spec.TrainHypers) == 0 {
		t.Fatal("no train hypers")
	}
	if spec.JobTimeout != 2*time.Second {
		t.Fatalf("job timeout = %v", spec.JobTimeout)
	}
}
