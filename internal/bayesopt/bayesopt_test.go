package bayesopt

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"autopilot/internal/fault"
	"autopilot/internal/gp"
	"autopilot/internal/pareto"
	"autopilot/internal/space"
	"autopilot/internal/tensor"
)

// problem is a discrete multi-objective test problem: candidate points,
// their features, and the objective function over a candidate index (nil
// marks a failed evaluation).
type problem struct {
	points []space.Point
	feats  [][]float64
	eval   func(i int) []float64
	ref    []float64
}

// zdt1Grid builds a discrete two-objective problem with a known Pareto front:
// x = (a, b) on a grid, f1 = a, f2 = b + (1-a)²; front at b = 0.
func zdt1Grid(n int) problem {
	var p problem
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.points = append(p.points, space.Point{i, j})
			p.feats = append(p.feats, []float64{float64(i) / float64(n-1), float64(j) / float64(n-1)})
		}
	}
	p.eval = func(i int) []float64 {
		a, b := p.feats[i][0], p.feats[i][1]
		return []float64{a, b + (1-a)*(1-a)}
	}
	p.ref = []float64{2, 3}
	return p
}

// line builds a one-feature problem over n evenly spaced candidates.
func line(n int, f func(x float64) []float64, ref ...float64) problem {
	p := problem{ref: ref}
	for i := 0; i < n; i++ {
		p.points = append(p.points, space.Point{i})
		p.feats = append(p.feats, []float64{float64(i) / float64(n-1)})
	}
	p.eval = func(i int) []float64 { return f(p.feats[i][0]) }
	return p
}

// evaluation is one scored candidate.
type evaluation struct {
	index      int
	objectives []float64
}

// drive runs the optimizer the way the dse search loop does, to a budget of
// designs that returned objectives: every proposal is scored in order and
// observed, and a failed candidate is used up without counting. It returns
// the scored candidates in order.
func drive(t *testing.T, p problem, cfg Config, budget int) ([]evaluation, error) {
	t.Helper()
	bo, err := New(p.points, p.feats, p.ref, cfg)
	if err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, pt := range p.points {
		index[fmt.Sprint(pt)] = i
	}
	var out []evaluation
	for len(out) < budget {
		pts, err := bo.Propose()
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			break
		}
		ys := make([][]float64, len(pts))
		for j, pt := range pts {
			i := index[fmt.Sprint(pt)]
			if ys[j] = p.eval(i); ys[j] != nil {
				out = append(out, evaluation{i, ys[j]})
			}
		}
		bo.Observe(ys)
	}
	return out, nil
}

// objectives returns the objective vectors of a run, in order.
func objectives(evs []evaluation) [][]float64 {
	out := make([][]float64, len(evs))
	for i, e := range evs {
		out[i] = e.objectives
	}
	return out
}

func TestOptimizeValidation(t *testing.T) {
	p := zdt1Grid(5)
	if _, err := New(nil, nil, p.ref, DefaultConfig()); err == nil {
		t.Error("expected error for empty candidate set")
	}
	if _, err := New(p.points, p.feats[1:], p.ref, DefaultConfig()); err == nil {
		t.Error("expected error for missing feature vectors")
	}
	if _, err := New(p.points, p.feats, nil, DefaultConfig()); err == nil {
		t.Error("expected error for empty reference point")
	}
	cfg := DefaultConfig()
	cfg.InitSamples = 0
	if _, err := New(p.points, p.feats, p.ref, cfg); err == nil {
		t.Error("expected error for zero init samples")
	}
}

func TestOptimizeEvaluatesEachCandidateOnce(t *testing.T) {
	p := zdt1Grid(6)
	calls := map[int]int{}
	inner := p.eval
	p.eval = func(i int) []float64 {
		calls[i]++
		return inner(i)
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 16
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 20 {
		t.Fatalf("evaluations = %d, want 20", len(evs))
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("candidate %d proposed %d times", i, c)
		}
	}
}

func TestOptimizeBudgetCappedBySpace(t *testing.T) {
	p := zdt1Grid(3) // 9 candidates
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 5, 50
	evs, err := drive(t, p, cfg, 55)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 {
		t.Fatalf("evaluations = %d, want all 9", len(evs))
	}
}

// TestFailedCandidatesUsedUpNotModeled: a candidate told nil is never
// proposed again and adds nothing to the models, and a run whose initial
// samples all fail is rejected.
func TestFailedCandidatesUsedUpNotModeled(t *testing.T) {
	p := zdt1Grid(6)
	proposed := map[int]int{}
	inner := p.eval
	p.eval = func(i int) []float64 {
		proposed[i]++
		if i%3 == 0 {
			return nil
		}
		return inner(i)
	}
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 16
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 20 {
		t.Fatalf("evaluations = %d, want 20 survivors", len(evs))
	}
	for i, c := range proposed {
		if c != 1 {
			t.Fatalf("candidate %d proposed %d times", i, c)
		}
	}

	p.eval = func(int) []float64 { return nil }
	if _, err := drive(t, p, cfg, 20); err == nil {
		t.Fatal("expected error when every initial sample fails")
	}
}

func TestFrontIsNonDominatedAndOnTrueFront(t *testing.T) {
	p := zdt1Grid(10)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, 40, 64
	cfg.Seed = 3
	evs, err := drive(t, p, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	frontIdx := pareto.NonDominated(objectives(evs))
	if len(frontIdx) == 0 {
		t.Fatal("empty front")
	}
	for _, i := range frontIdx {
		for _, j := range frontIdx {
			if i != j && pareto.Dominates(evs[i].objectives, evs[j].objectives) {
				t.Fatalf("front point %v dominates front point %v", evs[i].objectives, evs[j].objectives)
			}
		}
	}
	// with 50 evaluations on a 100-point grid, BO should discover at least
	// a few of the 10 true-front points (b = 0)
	trueFront := 0
	for _, i := range frontIdx {
		if p.feats[evs[i].index][1] == 0 {
			trueFront++
		}
	}
	if trueFront < 3 {
		t.Fatalf("only %d true-front points found", trueFront)
	}
}

func TestBOBeatsRandomSearchOnBudget(t *testing.T) {
	p := zdt1Grid(20) // 400 candidates
	budget := 40
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 10, budget-10, 128
	cfg.Seed = 7
	bo, err := drive(t, p, cfg, budget)
	if err != nil {
		t.Fatal(err)
	}
	// random search draws `budget` distinct candidates; mean over a few
	// seeds to avoid flakiness
	var randHV float64
	const seeds = 5
	for s := int64(0); s < seeds; s++ {
		var objs [][]float64
		for _, i := range tensor.NewRNG(100 + s).Perm(len(p.points))[:budget] {
			objs = append(objs, p.eval(i))
		}
		randHV += pareto.Hypervolume(objs, p.ref)
	}
	randHV /= seeds
	boHV := pareto.Hypervolume(objectives(bo), p.ref)
	if boHV < randHV {
		t.Fatalf("BO hypervolume %.4f below mean random-search %.4f", boHV, randHV)
	}
}

func TestOptimizeDeterministicForSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 6, 10, 32
	a, err := drive(t, zdt1Grid(8), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := drive(t, zdt1Grid(8), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].index != b[i].index {
			t.Fatalf("evaluation %d differs: %d vs %d", i, a[i].index, b[i].index)
		}
	}
}

func TestAcquisitionPrefersNonDominatedRegion(t *testing.T) {
	// a constant-objective problem must not crash the GP (zero variance path)
	p := line(3, func(float64) []float64 { return []float64{1, 1} }, 2, 2)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations = 2, 1
	if _, err := drive(t, p, cfg, 3); err != nil {
		t.Fatalf("constant objectives: %v", err)
	}
}

func TestOptimizeSingleObjectiveFindsMinimum(t *testing.T) {
	// 1-objective degenerate case: BO should find the global minimum of a
	// smooth function on a line.
	p := line(50, func(x float64) []float64 { return []float64{(x - 0.37) * (x - 0.37)} }, 2)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 5, 15, 50
	evs, err := drive(t, p, cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, e := range evs {
		best = math.Min(best, e.objectives[0])
	}
	if best > 0.01 {
		t.Fatalf("best objective %.4f, want near 0 (20 evals on 50 points)", best)
	}
}

// threeObjective is zdt1Grid(n) with a third objective that conflicts with
// the first two.
func threeObjective(n int) problem {
	p := zdt1Grid(n)
	p.ref = []float64{2, 3, 3}
	two := p.eval
	p.eval = func(i int) []float64 {
		f := two(i)
		return append(f, (1-f[0])*(1-f[0])+f[1]*f[1])
	}
	return p
}

// posterior reads a GP's factor rows, each cut to its lower triangle, and
// its weights, which gp keeps unexported, so that two posteriors can be
// compared bit for bit.
func posterior(g *gp.GP) (rows, weights [][]float64) {
	read := func(name string, triangle bool) [][]float64 {
		f := reflect.ValueOf(g).Elem().FieldByName(name)
		out := make([][]float64, f.Len())
		for i := range out {
			r := f.Index(i)
			n := r.Len()
			if triangle {
				n = i + 1
			}
			out[i] = make([]float64, n)
			for j := range out[i] {
				out[i][j] = r.Index(j).Float()
			}
		}
		return out
	}
	return read("l", true), read("alpha", false)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// lockstep drives two optimizers with one configuration over p, as drive
// does, to a budget of designs that returned objectives. The cached one
// screens on the given number of workers; the reference screens on one, and
// drops its posterior and its kernel cache before every proposal, so it
// refits from scratch and computes every kernel value anew, as the optimizer
// did before it kept them. Every proposal, and every posterior's factor rows
// and weights, must match bit for bit. check, if not nil, sees the cached
// optimizer after each of its proposals. lockstep returns the posteriors the
// cached optimizer scored with, in order, one per model-guided proposal.
func lockstep(t *testing.T, p problem, cfg Config, workers, budget int, check func(*BO)) []*gp.GP {
	t.Helper()
	cfg.Workers = workers
	cached, err := New(p.points, p.feats, p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	ref, err := New(p.points, p.feats, p.ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, pt := range p.points {
		index[fmt.Sprint(pt)] = i
	}
	var models []*gp.GP
	for scored := 0; scored < budget; {
		ref.mod, ref.cache = model{}, newKernelCache(ref.kernel, ref.cands, cfg.ScreenSize, cfg.Iterations)
		got, err := cached.Propose()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Propose()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: cached optimizer proposed %v, refitting one %v", len(models), got, want)
		}
		if check != nil {
			check(cached)
		}
		if len(got) == 0 {
			break
		}
		if cached.mod.gp != nil {
			gotRows, gotWeights := posterior(cached.mod.gp)
			wantRows, wantWeights := posterior(ref.mod.gp)
			if !sameBits(gotRows, wantRows) || !sameBits(gotWeights, wantWeights) {
				t.Fatalf("round %d: the posterior's factor or weights differ from a refit's", len(models))
			}
			models = append(models, cached.mod.gp)
		}
		ys := make([][]float64, len(got))
		for j, pt := range got {
			if ys[j] = p.eval(index[fmt.Sprint(pt)]); ys[j] != nil {
				scored++
			}
		}
		cached.Observe(ys)
		ref.Observe(ys)
	}
	return models
}

// screenWorkers are the worker counts the cached optimizer screens on
// against the one-worker refitting reference: one, two, an odd split and
// more workers than the host has CPUs.
var screenWorkers = []int{1, 2, 3, 8}

// TestCachedPosteriorMatchesRefit pins the kept posterior and the kernel
// cache over a whole default-budget run on a three-objective problem, with
// the screen split over every worker count of screenWorkers: every proposal,
// factor row and weight is bitwise a one-worker refit's, and the run fits
// its posterior once and extends it after that.
func TestCachedPosteriorMatchesRefit(t *testing.T) {
	p := threeObjective(64) // 4096 candidates
	t.Run("sms-ego", func(t *testing.T) {
		for _, workers := range screenWorkers {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				cfg := DefaultConfig()
				models := lockstep(t, p, cfg, workers, cfg.InitSamples+cfg.Iterations, nil)
				if len(models) != cfg.Iterations {
					t.Fatalf("%d model-guided proposals, want %d", len(models), cfg.Iterations)
				}
				for i, m := range models {
					if m != models[0] {
						t.Fatalf("proposal %d refitted the posterior; Append should have extended it", i)
					}
				}
			})
		}
	})
}

// TestScreenSplitsMatchSerial runs screens that split unevenly: a screen
// size that is not a multiple of gp.BlockSize, so the last block is
// partial, and screens of fewer blocks than workers, so some workers get no
// block. Each must propose bitwise what the one-worker reference does, to
// the end of a run that exhausts the pool, whose last screens are smaller
// still.
func TestScreenSplitsMatchSerial(t *testing.T) {
	p := threeObjective(8) // 64 candidates
	for _, tc := range []struct{ screen, workers int }{
		{30, 3}, // 8 blocks, the last of 2 candidates, over 3 workers
		{30, 8}, // 8 blocks over 8 workers
		{6, 8},  // 2 blocks, so 2 of 8 workers score
		{3, 2},  // one partial block, so one worker scores
	} {
		t.Run(fmt.Sprintf("screen=%d/workers=%d/sms-ego", tc.screen, tc.workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 6, 80, tc.screen
			models := lockstep(t, p, cfg, tc.workers, len(p.points), nil)
			if want := len(p.points) - cfg.InitSamples; len(models) != want {
				t.Fatalf("%d model-guided proposals, want %d", len(models), want)
			}
		})
	}
}

// TestScreenScoresEveryBlock pins the workers' claims: at every worker
// count, a Propose scores every block of its screen, so it fills every
// screened candidate's kernel values up to the latest observation, and it
// makes scratch for min(workers, blocks) workers. Each screen holds every
// candidate not yet told, so the test knows which candidates it screened.
func TestScreenScoresEveryBlock(t *testing.T) {
	p := zdt1Grid(8) // 64 candidates
	for _, workers := range screenWorkers {
		cfg := DefaultConfig()
		cfg.InitSamples, cfg.ScreenSize, cfg.Workers = 6, len(p.points), workers
		b, err := New(p.points, p.feats, p.ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; ; round++ {
			pts, err := b.Propose()
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) == 0 {
				break
			}
			for ci := range p.points {
				if round == 0 || b.told[ci] {
					continue
				}
				if s := int(b.cache.slot[ci]) - 1; s < 0 || int(b.cache.filled[s]) != len(b.feats) {
					t.Fatalf("workers=%d, round %d: candidate %d was screened but not scored", workers, round, ci)
				}
			}
			ys := make([][]float64, len(pts))
			for j, pt := range pts {
				ys[j] = p.eval(pt[0]*8 + pt[1])
			}
			b.Observe(ys)
		}
		firstBlocks := (len(p.points) - cfg.InitSamples + gp.BlockSize - 1) / gp.BlockSize
		if len(b.scorers) != min(workers, firstBlocks) {
			t.Fatalf("workers=%d: scratch for %d workers, want %d", workers, len(b.scorers), min(workers, firstBlocks))
		}
	}
}

// TestBlockBestsReduceLikeSerialScan pins the reduction of the blocks'
// bests: each block keeps its first best under a strict >, and the blocks
// are reduced in screen order under a strict >, which must pick the
// candidate one serial `score > bestScore` scan over the whole screen picks,
// ties and NaN included. Candidate indices are the scores' positions in the
// screen.
func TestBlockBestsReduceLikeSerialScan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name   string
		blocks [][]float64
		want   int
	}{
		{"top tied across two blocks", [][]float64{{1, 5, 2}, {5, 3}, {4}}, 1},
		{"top tied within a block", [][]float64{{1, 2}, {7, 7}, {7}}, 2},
		{"NaN first", [][]float64{{nan, 1}, {3, nan}}, 2},
		{"NaN after the best", [][]float64{{2, nan}, {nan, 2}}, 0},
		{"NaN everywhere but one", [][]float64{{nan, nan}, {nan, -4}, {nan}}, 3},
		{"every score NaN", [][]float64{{nan}, {nan, nan}}, -1},
		{"a block of -Inf", [][]float64{{-inf, -inf}, {0.5, 0.25}}, 2},
		{"a block of -Inf between", [][]float64{{-3}, {-inf, -inf, -inf}, {-3, -2}}, 5},
		{"every score -Inf", [][]float64{{-inf}, {-inf, -inf}}, -1},
		{"+Inf ties", [][]float64{{inf}, {inf}}, 0},
		{"signed zeros", [][]float64{{-1, math.Copysign(0, -1)}, {0}}, 1},
		{"a single block", [][]float64{{3, 1, 4, 1}}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var picks []pick
			var all []float64
			for _, scores := range tc.blocks {
				best := newPick()
				for _, s := range scores {
					best.offer(len(all), s)
					all = append(all, s)
				}
				picks = append(picks, best)
			}
			serial, bestScore := -1, math.Inf(-1)
			for i, s := range all {
				if s > bestScore {
					serial, bestScore = i, s
				}
			}
			if serial != tc.want {
				t.Fatalf("the serial scan picks %d; the case expects %d", serial, tc.want)
			}
			if got := reduce(picks).index; got != serial {
				t.Fatalf("the blocks reduce to candidate %d, the serial scan picks %d", got, serial)
			}
		})
	}
}

// panicKernel fails every evaluation.
type panicKernel struct{ gp.Kernel }

func (panicKernel) Eval(a, b []float64) float64 { panic("kernel evaluation failed") }

// TestScreenPanicReturnsError pins the screen's panic isolation: a panic
// while scoring the screen comes back from Propose as an error wrapping a
// *fault.PanicError, at every worker count. With one worker the screen is
// scored on Propose's own goroutine, whose stack the recovered panic
// carries; with more it is scored on goroutines the pool starts.
func TestScreenPanicReturnsError(t *testing.T) {
	p := zdt1Grid(8)
	for _, workers := range screenWorkers {
		cfg := DefaultConfig()
		cfg.InitSamples, cfg.ScreenSize, cfg.Workers = 8, 32, workers
		b, err := New(p.points, p.feats, p.ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := b.Propose()
		if err != nil {
			t.Fatal(err)
		}
		ys := make([][]float64, len(pts))
		for j, pt := range pts {
			ys[j] = p.eval(pt[0]*8 + pt[1])
		}
		b.Observe(ys)
		b.cache.kernel = panicKernel{b.cache.kernel}
		_, err = b.Propose()
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Propose returned %v, want a *fault.PanicError", workers, err)
		}
		stack := string(pe.Stack)
		onCaller := strings.Contains(stack, "TestScreenPanicReturnsError")
		pooled := strings.Contains(stack, "created by autopilot/internal/pool.")
		if want := workers == 1; onCaller != want || pooled == want {
			t.Fatalf("workers=%d: the panic was recovered on the caller's goroutine: %v, on a pool goroutine: %v\n%s", workers, onCaller, pooled, stack)
		}
	}
}

// TestCachedPosteriorFallsBackToJitter runs at a length scale so long, and
// an observation noise so far below float64 resolution, that the kernel
// matrix turns numerically singular partway through the run: the posterior
// must be extended at first, then refitted with the jitter schedule once
// Append refuses, and stay bitwise a refit's throughout. It fails if no
// refit happened after the first posterior, or if that one was refitted
// before it was ever extended.
func TestCachedPosteriorFallsBackToJitter(t *testing.T) {
	p := threeObjective(16)
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 40, 64
	cfg.LengthScale, cfg.Noise = 3, 1e-20-1e-9
	models := lockstep(t, p, cfg, 2, cfg.InitSamples+cfg.Iterations, nil)
	extended, refits := 0, 0
	for i := 1; i < len(models); i++ {
		if models[i] != models[i-1] {
			refits++
		} else if refits == 0 {
			extended++
		}
	}
	t.Logf("%d proposals: the first posterior was extended %d times, then %d refits", len(models), extended, refits)
	if extended == 0 || refits == 0 {
		t.Fatalf("the first posterior was extended %d times and the run refitted %d times; want both > 0", extended, refits)
	}
}

// countingKernel counts its evaluations, which the screen's workers make
// concurrently.
type countingKernel struct {
	gp.Kernel
	n *atomic.Int64
}

func (k countingKernel) Eval(a, b []float64) float64 {
	k.n.Add(1)
	return k.Kernel.Eval(a, b)
}

// TestKernelCacheGrowsWithScreening runs on a pool far larger than the
// cache's first width, ScreenSize × (Iterations+1), with half the
// candidates failing, so that the run takes more model-guided rounds than
// Iterations and screens more candidates than the rows first have room for.
// The slots must grow, the run must match a one-worker refit's bit for bit
// at every worker count of screenWorkers, and the cache must compute each
// value it holds once, only for screened candidates and observations, with
// rows no wider than twice the candidates screened.
func TestKernelCacheGrowsWithScreening(t *testing.T) {
	p := threeObjective(40) // 1600 candidates
	inner := p.eval
	p.eval = func(i int) []float64 {
		if i%2 == 0 {
			return nil
		}
		return inner(i)
	}
	for _, workers := range screenWorkers {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.InitSamples, cfg.Iterations, cfg.ScreenSize = 8, 12, 32
			width := cfg.ScreenSize * (cfg.Iterations + 1)
			var evals atomic.Int64
			rounds, grown := 0, 0
			lockstep(t, p, cfg, workers, cfg.InitSamples+cfg.Iterations, func(b *BO) {
				kc := &b.cache
				if rounds == 0 {
					if len(kc.filled) != width {
						t.Fatalf("rows start %d wide, want ScreenSize × (Iterations+1) = %d", len(kc.filled), width)
					}
					kc.kernel = countingKernel{kc.kernel, &evals}
				}
				rounds++
				held := 0
				for _, f := range kc.filled[:kc.used] {
					held += int(f)
				}
				if int64(held) != evals.Load() {
					t.Fatalf("round %d: the cache holds %d values but computed %d", rounds, held, evals.Load())
				}
				if screened := cfg.ScreenSize * (rounds - 1); kc.used > screened {
					t.Fatalf("round %d: %d slots taken after screening at most %d candidates", rounds, kc.used, screened)
				}
				if held > kc.used*len(b.feats) || len(kc.rows) > len(b.feats) {
					t.Fatalf("round %d: %d values in %d rows for %d screened candidates and %d observations", rounds, held, len(kc.rows), kc.used, len(b.feats))
				}
				for i, row := range kc.rows {
					if len(row) != len(kc.filled) {
						t.Fatalf("round %d: row %d holds %d slots, the cache %d", rounds, i, len(row), len(kc.filled))
					}
				}
				if len(kc.filled) > max(width, 2*kc.used) {
					t.Fatalf("round %d: rows are %d wide for %d slots taken", rounds, len(kc.filled), kc.used)
				}
				grown = len(kc.filled)
			})
			if rounds-1 <= cfg.Iterations {
				t.Fatalf("%d model-guided rounds; failures should have added rounds past %d", rounds-1, cfg.Iterations)
			}
			t.Logf("%d model-guided rounds; rows grew from %d to %d slots", rounds-1, width, grown)
			if grown <= width {
				t.Fatalf("rows are %d wide; the slots never grew past %d", grown, width)
			}
		})
	}
}

// TestProposeAllocationsIndependentOfScreen pins that scoring a screened
// candidate allocates nothing and that each worker's scratch is made once: a
// warm model-guided Propose keeps every worker's block and makes as many
// allocations when it screens 1024 candidates as when it screens 64, on a
// three-objective problem, at one, two and eight workers. The count is the
// mean over 40 proposals, because the runtime now and then allocates a
// goroutine or wait-queue record of its own when the pool's goroutines are
// scheduled differently; an allocation per block or per candidate would
// still add at least one per proposal. Forty-two proposals of 64 fill fewer
// cache slots than the rows start with, so the cache never grows here.
func TestProposeAllocationsIndependentOfScreen(t *testing.T) {
	p := zdt1Grid(64) // 4096 candidates
	p.ref = []float64{2, 3, 3}
	two := p.eval
	p.eval = func(i int) []float64 {
		f := two(i)
		return append(f, (1-f[0])*(1-f[0])+f[1]*f[1])
	}
	for _, workers := range []int{1, 2, 8} {
		allocs := map[int]float64{}
		for _, screen := range []int{64, 1024} {
			cfg := DefaultConfig()
			cfg.InitSamples, cfg.ScreenSize, cfg.Workers = 24, screen, workers
			bo, err := New(p.points, p.feats, p.ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts, err := bo.Propose()
			if err != nil {
				t.Fatal(err)
			}
			ys := make([][]float64, len(pts))
			for j, pt := range pts {
				ys[j] = p.eval(pt[0]*64 + pt[1])
			}
			bo.Observe(ys)
			if _, err := bo.Propose(); err != nil {
				t.Fatal(err)
			}
			kept := map[*block]bool{}
			for _, sc := range bo.scorers {
				kept[sc.blk] = true
			}
			allocs[screen] = testing.AllocsPerRun(40, func() {
				if _, err := bo.Propose(); err != nil {
					t.Fatal(err)
				}
			})
			for _, sc := range bo.scorers {
				if !kept[sc.blk] {
					t.Errorf("workers=%d, screen %d: a warm Propose made a worker new scratch", workers, screen)
				}
			}
		}
		if allocs[64] != allocs[1024] {
			t.Errorf("workers=%d: %v allocations per Propose screening 64 candidates, %v screening 1024", workers, allocs[64], allocs[1024])
		}
	}
}
