package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/uav"
)

// trainSpec is a tiny Phase-1 training sweep: three hypers, few episodes.
func trainSpec(workers int) Spec {
	spec := DefaultSpec(uav.ZhangNano(), airlearning.LowObstacle)
	spec.Phase1Mode = Phase1Train
	spec.TrainHypers = []policy.Hyper{
		{Layers: 2, Filters: 32}, {Layers: 4, Filters: 48}, {Layers: 7, Filters: 48},
	}
	spec.TrainCfg = rl.TrainConfig{Algorithm: rl.AlgDQN, Episodes: 4, EvalEpisodes: 3, Seed: 1}
	spec.Workers = workers
	return spec
}

func TestPhase1TrainDeterministicAcrossWorkerCounts(t *testing.T) {
	seq, err := Phase1(context.Background(), trainSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Phase1(context.Background(), trainSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("record counts differ: %d vs %d", seq.Len(), par.Len())
	}
	a, b := seq.All(), par.All()
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("record %d differs between workers=1 and workers=4:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Report {
		spec := fastSpec(uav.ZhangNano(), airlearning.DenseObstacle)
		spec.Workers = workers
		rep, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Phase2.ParetoIdx, par.Phase2.ParetoIdx) {
		t.Fatalf("Pareto fronts differ across worker counts:\n%v\n%v",
			seq.Phase2.ParetoIdx, par.Phase2.ParetoIdx)
	}
	if seq.Selected.Design.Design != par.Selected.Design.Design {
		t.Fatalf("selected designs differ:\n%v\n%v",
			seq.Selected.Design.Design, par.Selected.Design.Design)
	}
}
