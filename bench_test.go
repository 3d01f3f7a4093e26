// Package autopilot's benchmark harness regenerates every table and figure
// in the paper's evaluation section (run with `go test -bench=. -benchmem`)
// and adds ablation benchmarks for the design choices called out in
// DESIGN.md §6 (SMS-EGO vs random search, dataflow choice, architectural
// fine-tuning, evaluation worker count) plus micro-benchmarks of the hot
// substrates.
//
// Figure/table benchmarks report domain metrics through b.ReportMetric
// (missions, hypervolume, FPS) so regressions in the *results*, not just the
// runtime, are visible.
package autopilot

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/experiments"
	"autopilot/internal/gp"
	"autopilot/internal/nn"
	"autopilot/internal/pareto"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/rl"
	"autopilot/internal/spa"
	"autopilot/internal/space"
	"autopilot/internal/systolic"
	"autopilot/internal/tensor"
	"autopilot/internal/train"
	"autopilot/internal/uav"
)

// benchConfig is the budget used by the figure benchmarks: small enough to
// iterate, large enough to reproduce the paper's shapes.
func benchConfig() dse.Config {
	bo := bayesopt.DefaultConfig()
	bo.InitSamples, bo.Iterations, bo.ScreenSize = 10, 14, 96
	return dse.Config{CandidatePool: 192, BO: bo, Seed: 1, ProbeCorners: true}
}

// --- One benchmark per paper table/figure --------------------------------

func BenchmarkFig2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig2b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig3b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).TableV(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPipeline times one complete AutoPilot run (nano, dense) at
// the bench budget and reports the headline domain metric.
func BenchmarkFullPipeline(b *testing.B) {
	spec := core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	spec.Phase2 = benchConfig()
	benchmarkPipeline(b, spec)
}

// BenchmarkFullPipelineDefault times the paper's default co-design job:
// one complete AutoPilot run (nano, dense) at core.DefaultSpec's Phase-2
// budget, 24 random samples and 72 SMS-EGO iterations over a pool of 2048
// candidates. SMS-EGO's acquisition holds most of its time.
func BenchmarkFullPipelineDefault(b *testing.B) {
	benchmarkPipeline(b, core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle))
}

// benchmarkPipeline runs spec b.N times and reports the selected design's
// missions per charge.
func benchmarkPipeline(b *testing.B, spec core.Spec) {
	var missions float64
	for i := 0; i < b.N; i++ {
		rep, err := core.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		missions = rep.Selected.Missions()
	}
	b.ReportMetric(missions, "missions")
}

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------------

// BenchmarkAblationOptimizers compares every Phase-2 search method (the
// paper's §III-B: BO is replaceable with GA/SA/RL), random search included,
// at the same evaluation budget, reporting the dominated hypervolume of the
// resulting front.
func BenchmarkAblationOptimizers(b *testing.B) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	space := dse.DefaultSpace()
	cfg := benchConfig()
	ref := []float64{0, 30, 1}
	for _, opt := range []dse.Optimizer{dse.OptBayesian, dse.OptGenetic, dse.OptAnnealing, dse.OptReinforce, dse.OptRandom} {
		b.Run(opt.String(), func(b *testing.B) {
			var hv float64
			for i := 0; i < b.N; i++ {
				res, err := dse.Execute(context.Background(), dse.Request{
					Space: space, DB: db, Scenario: airlearning.DenseObstacle,
					Power: power.Default(), Config: cfg, Optimizer: opt,
				})
				if err != nil {
					b.Fatal(err)
				}
				objs := make([][]float64, 0, len(res.ParetoIdx))
				for _, e := range res.Pareto() {
					objs = append(objs, e.Objectives())
				}
				hv = pareto.Hypervolume(objs, ref)
			}
			b.ReportMetric(hv, "hypervolume")
		})
	}
}

// BenchmarkAblationWorkers measures Phase-2 wall-clock scaling across
// worker counts, which bound both the evaluations and the optimizer's
// candidate screen; the determinism tests guarantee the results themselves
// are identical, so only the runtime should move.
func BenchmarkAblationWorkers(b *testing.B) {
	db := airlearning.NewDatabase()
	airlearning.PopulateSurrogate(db)
	cfg := benchConfig()
	for _, workers := range []int{1, 2, 4, 0} {
		name := "workers=all"
		if workers > 0 {
			name = "workers=" + string(rune('0'+workers))
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := dse.Execute(context.Background(), dse.Request{
					Space:    dse.DefaultSpace(),
					DB:       db,
					Scenario: airlearning.DenseObstacle,
					Power:    power.Default(),
					Config:   cfg,
					Workers:  workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDataflow compares the three systolic mappings on the
// dense-obstacle policy, reporting achieved FPS.
func BenchmarkAblationDataflow(b *testing.B) {
	net, err := policy.Build(policy.Hyper{Layers: 7, Filters: 48}, policy.DefaultTemplate())
	if err != nil {
		b.Fatal(err)
	}
	for _, df := range []systolic.Dataflow{systolic.OutputStationary, systolic.WeightStationary, systolic.InputStationary} {
		b.Run(df.String(), func(b *testing.B) {
			// generous bandwidth puts the array in the compute-bound regime
			// where the mapping strategy actually matters
			cfg := systolic.Config{
				Rows: 128, Cols: 128, IfmapKB: 256, FilterKB: 256, OfmapKB: 256,
				Dataflow: df, FreqMHz: 500, BandwidthGBps: 64,
			}
			var fps float64
			for i := 0; i < b.N; i++ {
				rep, err := systolic.Simulate(net, cfg)
				if err != nil {
					b.Fatal(err)
				}
				fps = rep.FPS
			}
			b.ReportMetric(fps, "fps")
		})
	}
}

// BenchmarkAblationTuning measures what the architectural fine-tuning stage
// (frequency + node scaling) buys at mission level.
func BenchmarkAblationTuning(b *testing.B) {
	spec := core.DefaultSpec(uav.ZhangNano(), airlearning.DenseObstacle)
	spec.Phase2 = benchConfig()
	db, err := core.Phase1(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Phase2(context.Background(), spec, db)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-tuning", func(b *testing.B) {
		var missions float64
		for i := 0; i < b.N; i++ {
			rep, err := core.Phase3(context.Background(), spec, res)
			if err != nil {
				b.Fatal(err)
			}
			missions = rep.Selected.Missions()
		}
		b.ReportMetric(missions, "missions")
	})
	b.Run("without-tuning", func(b *testing.B) {
		frozen := spec
		// restrict tuning to the identity variant
		frozen.Tuning.FreqScales = []float64{1.0}
		frozen.Tuning.Nodes = []int{28}
		var missions float64
		for i := 0; i < b.N; i++ {
			rep, err := core.Phase3(context.Background(), frozen, res)
			if err != nil {
				b.Fatal(err)
			}
			missions = rep.Selected.Missions()
		}
		b.ReportMetric(missions, "missions")
	})
}

// --- Micro-benchmarks of the substrates -----------------------------------

func BenchmarkSystolicSimulate(b *testing.B) {
	net, err := policy.Build(policy.Hyper{Layers: 7, Filters: 48}, policy.DefaultTemplate())
	if err != nil {
		b.Fatal(err)
	}
	cfg := systolic.Config{Rows: 128, Cols: 128, IfmapKB: 256, FilterKB: 256, OfmapKB: 256,
		Dataflow: systolic.OutputStationary, FreqMHz: 500, BandwidthGBps: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := systolic.Simulate(net, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPFitPredict(b *testing.B) {
	g := tensor.NewRNG(1)
	n := 64
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		y[i] = g.NormFloat64()
	}
	k := gp.SE{Variance: 1, LengthScale: 0.5}
	q := []float64{0.5, 0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gp.Fit(x, y, k, 1e-6)
		if err != nil {
			b.Fatal(err)
		}
		m.Predict(q)
	}
}

// BenchmarkAcquisitionScreen times one SMS-EGO proposal at the size of the
// default budget's last iteration: 96 observations of three objectives, and
// 1024 of 2048 candidates screened. The objectives are DTLZ2 over six
// features, whose random samples leave a front of a few dozen points. The
// timed proposals observe nothing new, so each one reads a warm posterior
// and, once the first few have screened nearly every candidate, a warm
// kernel cache: what it times is the block solve and the scoring. The
// screen is split over GOMAXPROCS workers, so -cpu sets how many goroutines
// score it; at -cpu 1 it is the serial loop.
func BenchmarkAcquisitionScreen(b *testing.B) {
	const pool, observed = 2048, 96
	g := tensor.NewRNG(8)
	points := make([]space.Point, pool)
	feats := make([][]float64, pool)
	for i := range points {
		points[i] = space.Point{i}
		feats[i] = make([]float64, 6)
		for j := range feats[i] {
			feats[i][j] = g.Float64()
		}
	}
	dtlz2 := func(x []float64) []float64 {
		r := 1.0
		for _, v := range x[2:] {
			r += (v - 0.5) * (v - 0.5)
		}
		a, c := x[0]*math.Pi/2, x[1]*math.Pi/2
		return []float64{r * math.Cos(a) * math.Cos(c), r * math.Cos(a) * math.Sin(c), r * math.Sin(a)}
	}
	cfg := bayesopt.DefaultConfig()
	cfg.Iterations = observed - cfg.InitSamples
	cfg.Workers = runtime.GOMAXPROCS(0)
	opt, err := bayesopt.New(points, feats, []float64{2.5, 2.5, 2.5}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for n := 0; n < observed; {
		pts, err := opt.Propose()
		if err != nil {
			b.Fatal(err)
		}
		ys := make([][]float64, len(pts))
		for j, pt := range pts {
			ys[j] = dtlz2(feats[pt[0]])
		}
		opt.Observe(ys)
		n += len(ys)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Propose(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypervolume3D(b *testing.B) {
	g := tensor.NewRNG(2)
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
	}
	ref := []float64{1.5, 1.5, 1.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(pts, ref)
	}
}

func BenchmarkPolicyForward(b *testing.B) {
	g := tensor.NewRNG(3)
	m, err := policy.NewTrainable(policy.Hyper{Layers: 4, Filters: 48}, policy.DefaultTrainable(), g)
	if err != nil {
		b.Fatal(err)
	}
	img := g.Randn(1, 1, 11, 11)
	st := g.Randn(1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(img, st)
	}
}

func BenchmarkEnvEpisode(b *testing.B) {
	env := airlearning.NewEnv(airlearning.DenseObstacle, 1)
	expert := airlearning.ExpertPolicy{Env: env}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		airlearning.RunEpisode(env, expert)
	}
}

// BenchmarkTrainRolloutEpisode times one single-episode frozen-policy
// rollout through the engine's shared episode loop — the unit of work the
// evaluation collector repeats.
func BenchmarkTrainRolloutEpisode(b *testing.B) {
	g := tensor.NewRNG(5)
	net, err := policy.NewTrainable(policy.Hyper{Layers: 2, Filters: 32}, policy.DefaultTrainable(), g)
	if err != nil {
		b.Fatal(err)
	}
	pol := rl.GreedyPolicy{Net: net}
	env := airlearning.NewEnv(airlearning.LowObstacle, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		airlearning.RunEpisode(env, pol)
	}
}

// BenchmarkTrainCollector measures the evaluation collector's
// throughput at several worker counts; the determinism tests guarantee the
// per-episode results are identical, so only runtime should move.
func BenchmarkTrainCollector(b *testing.B) {
	g := tensor.NewRNG(6)
	net, err := policy.NewTrainable(policy.Hyper{Layers: 2, Filters: 32}, policy.DefaultTrainable(), g)
	if err != nil {
		b.Fatal(err)
	}
	pol := rl.GreedyPolicy{Net: net}
	const episodes = 32
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			col := train.Collector{Scenario: airlearning.LowObstacle, Seed: 3001, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := col.SuccessRate(context.Background(), pol, episodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDQNUpdate times one DQN update: each op observes one recorded
// transition, and with UpdateEvery = 1 that runs one minibatch update of
// batch 8. Outside the timer the agent fills its 256-slot replay buffer from
// a fixed cycle of 256 transitions of a random walk, which takes it past
// LearnStart and sizes every buffer; the ops then replay the same cycle, so
// the buffer stays full and an op's work does not depend on b.N.
func BenchmarkDQNUpdate(b *testing.B) {
	const cycle = 256
	g := tensor.NewRNG(4)
	h := policy.Hyper{Layers: 2, Filters: 32}
	online, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	target, _ := policy.NewTrainable(h, policy.DefaultTrainable(), g)
	cfg := rl.DefaultDQNConfig()
	cfg.BufferSize, cfg.LearnStart, cfg.UpdateEvery, cfg.BatchSize = cycle, 64, 1, 8
	agent := rl.NewDQN(online, target, cfg, 1)
	env := airlearning.NewEnv(airlearning.LowObstacle, 4)
	rec := make([]rl.Transition, 0, cycle)
	obs := env.Reset()
	for len(rec) < cycle {
		a := g.Intn(airlearning.NumActions)
		next, r, done := env.Step(a)
		rec = append(rec, rl.Transition{Obs: obs, Action: a, Reward: r, Next: next, Done: done})
		if obs = next; done {
			obs = env.Reset()
		}
	}
	for _, t := range rec {
		agent.Observe(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Observe(rec[i%cycle])
	}
}

// BenchmarkConv2DStep times one Forward plus Backward of each convolution
// shape the trainable trunk trains: its 1→6 stride-2 first layer on the
// 11x11 observation, and the 6→6 stride-1 layer that follows it. The
// incoming gradient is zero wherever a following ReLU would mask it.
func BenchmarkConv2DStep(b *testing.B) {
	for _, c := range []struct {
		name string
		d    tensor.ConvDims
	}{
		{"1to6-stride2", tensor.ConvDims{InC: 1, InH: 11, InW: 11, OutC: 6, K: 3, Stride: 2, Pad: 1}},
		{"6to6", tensor.ConvDims{InC: 6, InH: 6, InW: 6, OutC: 6, K: 3, Stride: 1, Pad: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := tensor.NewRNG(7)
			layer := nn.NewConv2D(c.d, g)
			x := g.Randn(1, c.d.InC, c.d.InH, c.d.InW)
			grad := g.Randn(1, c.d.OutC, c.d.OutH(), c.d.OutW())
			for i, y := range layer.Forward(x).Data() {
				if y <= 0 {
					grad.Data()[i] = 0
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.Forward(x)
				layer.Backward(grad)
			}
		})
	}
}

func BenchmarkExtSensor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).ExtSensor(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(benchConfig()).ExtOptimizer(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPAEpisode(b *testing.B) {
	env := airlearning.NewEnv(airlearning.DenseObstacle, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := spa.NewPipeline(env)
		airlearning.RunEpisode(env, pl)
	}
}

func BenchmarkTraceLayer(b *testing.B) {
	layer := policy.LayerSpec{
		Name: "conv", Kind: policy.KindConv,
		Conv: tensor.ConvDims{InC: 3, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1},
	}
	cfg := systolic.Config{Rows: 8, Cols: 8, IfmapKB: 32, FilterKB: 32, OfmapKB: 32,
		Dataflow: systolic.OutputStationary, FreqMHz: 500, BandwidthGBps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := systolic.TraceLayer(layer, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
