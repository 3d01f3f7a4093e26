package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/dse"
	"autopilot/internal/gp"
	"autopilot/internal/hw"
	"autopilot/internal/pareto"
	"autopilot/internal/policy"
	"autopilot/internal/rl"
	"autopilot/internal/train"
)

// replays re-runs the hot kernels of a traced job on inputs captured from
// it, so a later per-call speed-up shows with its input size beside it.
func replays(o *outcome) (map[string]float64, error) {
	m := map[string]float64{}
	objs := make([][]float64, len(o.res.Evaluated))
	for i, e := range o.res.Evaluated {
		objs[i] = e.Objectives()
	}
	nBO := min(o.nInit+o.nIter, len(objs))

	// pareto: the optimizer's final front, before the probe sweep.
	front := pareto.Filter(objs[:nBO])
	// Each contribution query is a front point moved 1% towards the ideal,
	// so it adds volume the way a promising LCB estimate does.
	queries := make([][]float64, len(front))
	for i, f := range front {
		q := make([]float64, len(f))
		for j := range f {
			q[j] = f[j] - 0.01*(frontierRef[j]-f[j])
		}
		queries[i] = q
	}
	k := 0
	contribute := func() {
		pareto.Contribution(front, queries[k%len(queries)], frontierRef)
		k++
	}
	m["pareto.front_size"] = float64(len(front))
	m["pareto.hypervolume_us"] = 1e6 * perCall(func() { pareto.Hypervolume(front, frontierRef) })
	m["pareto.contribution_us"] = 1e6 * perCall(contribute)
	m["pareto.contribution_allocs"] = allocsPerCall(len(queries), contribute)
	m["pareto.nondominated_ms"] = 1e3 * perCall(func() { pareto.NonDominated(objs) })
	m["pareto.nondominated_n"] = float64(len(objs))

	if o.bayes {
		if err := replayGP(m, o, nBO); err != nil {
			return nil, err
		}
	}
	if err := replayHW(m, o); err != nil {
		return nil, err
	}
	if o.rep != nil && o.rep.Spec.TrainHypers != nil {
		if err := replayTraining(m, o); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replayGP fits one objective's GP at the size of the last model-guided
// iteration and predicts at every evaluated design.
func replayGP(m map[string]float64, o *outcome, nBO int) error {
	n := nBO - 1
	x := make([][]float64, n)
	y := make([]float64, n)
	mean := 0.0
	for i, e := range o.res.Evaluated[:n] {
		x[i] = o.space.Features(e.Design)
		y[i] = e.Objectives()[1]
		mean += y[i] / float64(n)
	}
	sd := 0.0
	for _, v := range y {
		sd += (v - mean) * (v - mean) / float64(n)
	}
	sd = math.Max(math.Sqrt(sd), 1e-12)
	for i := range y {
		y[i] = (y[i] - mean) / sd
	}
	cfg := dse.DefaultConfig().BO
	kernel := gp.SE{Variance: 1, LengthScale: cfg.LengthScale}
	var model *gp.GP
	var err error
	m["gp.fit_ms"] = 1e3 * perCall(func() { model, err = gp.Fit(x, y, kernel, cfg.Noise+1e-9) })
	if err != nil {
		return fmt.Errorf("gp replay: %w", err)
	}
	queries := make([][]float64, len(o.res.Evaluated))
	for i, e := range o.res.Evaluated {
		queries[i] = o.space.Features(e.Design)
	}
	k := 0
	m["gp.predict_us"] = 1e6 * perCall(func() {
		model.Predict(queries[k%len(queries)])
		k++
	})
	m["gp.fit_n"] = float64(n)
	m["gp.dims"] = float64(len(x[0]))
	return nil
}

// replayHW prices up to 256 of the job's designs on the systolic backend and
// builds each distinct model once.
func replayHW(m map[string]float64, o *outcome) error {
	evals := o.res.Evaluated
	step := max(1, len(evals)/256)
	var designs []dse.DesignPoint
	for i := 0; i < len(evals); i += step {
		designs = append(designs, evals[i].Design)
	}
	nets := map[policy.Hyper]*policy.Network{}
	var hypers []policy.Hyper
	for _, d := range designs {
		if _, ok := nets[d.Hyper]; ok {
			continue
		}
		net, err := policy.Build(d.Hyper, o.space.Template)
		if err != nil {
			return fmt.Errorf("policy replay: %w", err)
		}
		nets[d.Hyper] = net
		hypers = append(hypers, d.Hyper)
	}
	k := 0
	m["policy.build_us"] = 1e6 * perCall(func() {
		policy.Build(hypers[k%len(hypers)], o.space.Template) //nolint:errcheck // built above
		k++
	})
	var err error
	k = 0
	m["hw.estimate_us"] = 1e6 * perCall(func() {
		d := designs[k%len(designs)]
		k++
		be := hw.SystolicBackend{Config: d.HW, Power: o.pm}
		if _, e := be.Estimate(hw.NetworkWorkload(d.Hyper.String(), nets[d.Hyper])); e != nil {
			err = e
		}
	})
	m["hw.estimate_n"] = float64(len(designs))
	m["policy.build_n"] = float64(len(hypers))
	if err != nil {
		return fmt.Errorf("hw replay: %w", err)
	}
	return nil
}

// replayEpisodes is how many training and rollout episodes each trained
// model replays.
const replayEpisodes = 10

// replayTraining times DQN training episodes, after the replay buffer has
// passed its learning start, and greedy rollouts of the resulting policy,
// for each trained model.
func replayTraining(m map[string]float64, o *outcome) error {
	spec := o.rep.Spec
	factory := rl.Factory(spec.TrainCfg)
	learnStart := rl.DefaultDQNConfig().LearnStart
	var dqn, dqnSteps, rollout, rolloutSteps []float64
	for _, h := range spec.TrainHypers {
		alg, err := factory(h, spec.TrainCfg.Seed)
		if err != nil {
			return fmt.Errorf("training replay: %w", err)
		}
		env := airlearning.NewEnv(spec.Scenario, spec.TrainCfg.Seed)
		for steps := 0; steps < learnStart; {
			steps += train.RunTrainingEpisode(env, alg).Steps
		}
		for i := 0; i < replayEpisodes; i++ {
			start := time.Now()
			res := train.RunTrainingEpisode(env, alg)
			dqn = append(dqn, time.Since(start).Seconds())
			dqnSteps = append(dqnSteps, float64(res.Steps))
		}
		pol := alg.Policy()
		for i := 0; i < replayEpisodes; i++ {
			start := time.Now()
			res := airlearning.RunEpisode(env, pol)
			rollout = append(rollout, time.Since(start).Seconds())
			rolloutSteps = append(rolloutSteps, float64(res.Steps))
		}
	}
	m["train.dqn_episode_ms"] = 1e3 * median(dqn)
	m["train.dqn_episode_steps"] = median(dqnSteps)
	m["train.rollout_episode_ms"] = 1e3 * median(rollout)
	m["train.rollout_episode_steps"] = median(rolloutSteps)
	return nil
}

// perCall times fn call by call, at least five calls and up to 50 ms, and
// returns the median seconds per call.
func perCall(fn func()) float64 {
	var ts []float64
	start := time.Now()
	for len(ts) < 5 || (time.Since(start) < 50*time.Millisecond && len(ts) < 10000) {
		t := time.Now()
		fn()
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

// allocsPerCall returns heap allocations per call of fn over n calls.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
