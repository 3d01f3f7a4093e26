package airlearning

import (
	"context"
	"errors"
	"slices"
	"testing"

	"autopilot/internal/policy"
	"autopilot/internal/tensor"
)

func TestScenarioConfigsMatchPaper(t *testing.T) {
	low := LowObstacle.Config()
	if low.RandomMax != 4 || low.FixedObstacles != 0 {
		t.Errorf("low = %+v", low)
	}
	med := MediumObstacle.Config()
	if med.FixedObstacles != 4 || med.RandomMax != 3 {
		t.Errorf("medium = %+v", med)
	}
	dense := DenseObstacle.Config()
	if dense.FixedObstacles != 4 || dense.RandomMax != 5 {
		t.Errorf("dense = %+v", dense)
	}
}

func TestScenarioStrings(t *testing.T) {
	for _, s := range Scenarios {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
}

func TestObstacleDensityOrdering(t *testing.T) {
	if !(LowObstacle.ObstacleDensity() < MediumObstacle.ObstacleDensity()) {
		// low has 4 random (mean 4), medium has 4 fixed + mean 1.5 random = 5.5
		t.Error("medium must be denser than low")
	}
	if !(MediumObstacle.ObstacleDensity() < DenseObstacle.ObstacleDensity()) {
		t.Error("dense must be denser than medium")
	}
}

func TestResetProducesSolvableEpisodes(t *testing.T) {
	for _, s := range Scenarios {
		env := NewEnv(s, 7)
		for ep := 0; ep < 20; ep++ {
			obs := env.Reset()
			if env.Blocked(env.Pos()) {
				t.Fatalf("%v: start blocked", s)
			}
			if env.Blocked(env.Goal()) {
				t.Fatalf("%v: goal blocked", s)
			}
			if path := env.ShortestPath(env.Pos(), env.Goal()); len(path) == 0 {
				t.Fatalf("%v: unreachable goal", s)
			}
			if obs.Image.Len() != ObsWindow*ObsWindow {
				t.Fatalf("obs image len = %d", obs.Image.Len())
			}
			if obs.State.Len() != StateDim {
				t.Fatalf("obs state len = %d", obs.State.Len())
			}
		}
	}
}

func TestGoalRandomizedEachEpisode(t *testing.T) {
	env := NewEnv(LowObstacle, 3)
	goals := map[Point]bool{}
	for i := 0; i < 10; i++ {
		env.Reset()
		goals[env.Goal()] = true
	}
	if len(goals) < 3 {
		t.Fatalf("only %d distinct goals over 10 episodes; domain randomization broken", len(goals))
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	a, b := NewEnv(DenseObstacle, 42), NewEnv(DenseObstacle, 42)
	for i := 0; i < 5; i++ {
		a.Reset()
		b.Reset()
		if a.Goal() != b.Goal() || a.Pos() != b.Pos() {
			t.Fatal("same seed must reproduce the same episodes")
		}
	}
}

func TestStepIntoWallCollides(t *testing.T) {
	env := NewEnv(LowObstacle, 1)
	env.Reset()
	// start is at (1, H-2); move SW repeatedly to leave the arena
	done := false
	var reward float64
	for i := 0; i < 5 && !done; i++ {
		_, reward, done = env.Step(5) // SW
	}
	if !done || env.OutcomeNow() != Collision {
		t.Fatalf("outcome = %v, want collision", env.OutcomeNow())
	}
	if reward >= 0 {
		t.Fatalf("collision reward = %g, want negative", reward)
	}
}

func TestReachGoalGivesSuccessAndPositiveReward(t *testing.T) {
	env := NewEnv(LowObstacle, 5)
	env.Reset()
	expert := ExpertPolicy{Env: env}
	var reward float64
	done := false
	obs := env.observe()
	for !done {
		obs, reward, done = env.Step(expert.Act(obs))
	}
	if env.OutcomeNow() != Success {
		t.Fatalf("outcome = %v, want success", env.OutcomeNow())
	}
	if reward <= 0 {
		t.Fatalf("terminal reward = %g, want positive", reward)
	}
}

func TestTimeoutOutcome(t *testing.T) {
	env := NewEnv(LowObstacle, 9)
	env.Reset()
	// oscillate E/W forever (legal moves from the start region)
	done := false
	i := 0
	for !done {
		a := 2
		if i%2 == 1 {
			a = 6
		}
		_, _, done = env.Step(a)
		i++
		if i > env.Config().MaxSteps+2 {
			t.Fatal("episode did not time out")
		}
	}
	if env.OutcomeNow() != Timeout && env.OutcomeNow() != Collision {
		t.Fatalf("outcome = %v", env.OutcomeNow())
	}
}

func TestStepAfterDonePanics(t *testing.T) {
	env := NewEnv(LowObstacle, 1)
	env.Reset()
	done := false
	for !done {
		_, _, done = env.Step(5)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Step(0)
}

func TestBadActionPanics(t *testing.T) {
	env := NewEnv(LowObstacle, 1)
	env.Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Step(8)
}

func TestExpertPolicyHighSuccess(t *testing.T) {
	for _, s := range Scenarios {
		env := NewEnv(s, 11)
		rate := SuccessRate(env, ExpertPolicy{Env: env}, 30)
		if rate < 0.95 {
			t.Errorf("%v: expert success %.2f, want >= 0.95", s, rate)
		}
	}
}

func TestRandomPolicyWorseThanExpert(t *testing.T) {
	env := NewEnv(LowObstacle, 13)
	randRate := SuccessRate(env, &cyclePolicy{}, 30)
	expertRate := SuccessRate(env, ExpertPolicy{Env: env}, 30)
	if randRate >= expertRate {
		t.Fatalf("random %.2f >= expert %.2f", randRate, expertRate)
	}
}

// cyclePolicy steps through the actions in a fixed, goal-blind order.
type cyclePolicy struct{ i int }

func (p *cyclePolicy) Act(Observation) int {
	p.i = (p.i*7 + 3) % NumActions
	return p.i
}

// cancellingExpert flies the expert's moves and cancels its context on
// action number at.
type cancellingExpert struct {
	expert   ExpertPolicy
	acts, at int
	cancel   func()
}

func (p *cancellingExpert) Act(o Observation) int {
	if p.acts++; p.acts == p.at {
		p.cancel()
	}
	return p.expert.Act(o)
}

func TestRunEpisodeResultConsistency(t *testing.T) {
	env := NewEnv(MediumObstacle, 17)
	res := RunEpisode(env, ExpertPolicy{Env: env})
	if res.Steps <= 0 {
		t.Fatal("episode took no steps")
	}
	if res.Outcome == Running {
		t.Fatal("RunEpisode returned while still running")
	}
}

// TestRunEpisodeContextStopsWhenCancelled: a context cancelled during an
// episode stops it before the next step, with the steps taken so far, while
// an uncancelled one reproduces RunEpisode.
func TestRunEpisodeContextStopsWhenCancelled(t *testing.T) {
	env := NewEnv(MediumObstacle, 17)
	want := RunEpisode(env, ExpertPolicy{Env: env})
	if want.Steps <= 3 {
		t.Fatalf("reference episode took %d steps; the test needs more than 3", want.Steps)
	}
	env = NewEnv(MediumObstacle, 17)
	if got, err := RunEpisodeContext(context.Background(), env, ExpertPolicy{Env: env}); err != nil || got != want {
		t.Fatalf("uncancelled RunEpisodeContext = %+v, %v; RunEpisode = %+v", got, err, want)
	}
	env = NewEnv(MediumObstacle, 17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopAfter3 := &cancellingExpert{expert: ExpertPolicy{Env: env}, at: 3, cancel: cancel}
	res, err := RunEpisodeContext(ctx, env, stopAfter3)
	if !errors.Is(err, context.Canceled) || res.Steps != 3 || res.Outcome != Running {
		t.Fatalf("cancelled at step 3: %+v, %v; want 3 steps, Running, context.Canceled", res, err)
	}
}

func TestSuccessRateZeroEpisodes(t *testing.T) {
	env := NewEnv(LowObstacle, 1)
	if got := SuccessRate(env, ExpertPolicy{Env: env}, 0); got != 0 {
		t.Fatalf("SuccessRate(0 eps) = %g", got)
	}
}

func TestObservationEgocentricWalls(t *testing.T) {
	env := NewEnv(LowObstacle, 21)
	obs := env.Reset()
	// start near the bottom-left corner: the left edge of the window must
	// show out-of-arena cells as blocked
	blockedLeft := 0.0
	for y := 0; y < ObsWindow; y++ {
		blockedLeft += obs.Image.At(0, y, 0)
	}
	if blockedLeft == 0 {
		t.Fatal("expected wall cells visible in egocentric crop near the corner")
	}
}

func TestDatabasePutGetBest(t *testing.T) {
	db := NewDatabase()
	db.Put(Record{Hyper: policy.Hyper{Layers: 4, Filters: 48}, Scenario: MediumObstacle, SuccessRate: 0.8})
	db.Put(Record{Hyper: policy.Hyper{Layers: 2, Filters: 32}, Scenario: MediumObstacle, SuccessRate: 0.6})
	db.Put(Record{Hyper: policy.Hyper{Layers: 9, Filters: 64}, Scenario: DenseObstacle, SuccessRate: 0.7})
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	r, ok := db.Get(policy.Hyper{Layers: 4, Filters: 48}, MediumObstacle)
	if !ok || r.SuccessRate != 0.8 {
		t.Fatalf("Get = %+v, %v", r, ok)
	}
	best, ok := db.Best(MediumObstacle)
	if !ok || best.Hyper.Layers != 4 {
		t.Fatalf("Best = %+v", best)
	}
	if _, ok := db.Best(LowObstacle); ok {
		t.Fatal("Best on empty scenario must report !ok")
	}
}

func TestDatabaseSaveLoadRoundTrip(t *testing.T) {
	db := NewDatabase()
	PopulateSurrogate(db)
	path := t.TempDir() + "/db.json"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), db.Len())
	}
	for _, r := range db.All() {
		lr, ok := loaded.Get(r.Hyper, r.Scenario)
		if !ok || lr.SuccessRate != r.SuccessRate {
			t.Fatalf("record %s lost in round trip", r.ID)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(t.TempDir() + "/nope.json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSurrogateBestModelsMatchPaper(t *testing.T) {
	var sur SurrogateDB
	wants := map[Scenario]policy.Hyper{
		LowObstacle:    {Layers: 5, Filters: 32},
		MediumObstacle: {Layers: 4, Filters: 48},
		DenseObstacle:  {Layers: 7, Filters: 48},
	}
	for s, want := range wants {
		best, bestRate := policy.Hyper{}, -1.0
		for _, h := range policy.AllHypers() {
			if r := sur.SuccessRate(h, s); r > bestRate {
				best, bestRate = h, r
			}
		}
		if best != want {
			t.Errorf("%v: best = %v, want %v", s, best, want)
		}
	}
}

func TestSurrogateRatesInPaperBand(t *testing.T) {
	var sur SurrogateDB
	for _, s := range Scenarios {
		for _, h := range policy.AllHypers() {
			r := sur.SuccessRate(h, s)
			if r < 0.55 || r > 0.915 {
				t.Errorf("%v %v: rate %.3f outside paper band [0.55, 0.915]", s, h, r)
			}
		}
	}
}

func TestSurrogateInvalidHyperZero(t *testing.T) {
	var sur SurrogateDB
	if sur.SuccessRate(policy.Hyper{Layers: 0, Filters: 0}, LowObstacle) != 0 {
		t.Fatal("invalid hyper must score 0")
	}
}

func TestPopulateSurrogateCoversSpace(t *testing.T) {
	db := NewDatabase()
	PopulateSurrogate(db)
	if db.Len() != 27*3 {
		t.Fatalf("Len = %d, want 81", db.Len())
	}
	for _, r := range db.All() {
		if r.Params <= 0 {
			t.Fatalf("record %s missing params", r.ID)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Running, Success, Collision, Timeout} {
		if o.String() == "" {
			t.Errorf("empty string for %d", int(o))
		}
	}
}

func TestSuccessRateCI(t *testing.T) {
	env := NewEnv(LowObstacle, 41)
	rate, lo, hi := SuccessRateCI(env, ExpertPolicy{Env: env}, 30)
	if !(lo <= rate && rate <= hi) {
		t.Fatalf("CI [%g, %g] does not bracket rate %g", lo, hi, rate)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("CI [%g, %g] outside [0,1]", lo, hi)
	}
	// expert is near-perfect: the interval must sit high
	if lo < 0.6 {
		t.Fatalf("expert lower bound %g suspiciously low", lo)
	}
	if r, l, h := SuccessRateCI(env, ExpertPolicy{Env: env}, 0); r != 0 || l != 0 || h != 0 {
		t.Fatal("zero episodes must give a zero CI")
	}
}

func TestSuccessRateCIWiderWithFewerEpisodes(t *testing.T) {
	envA := NewEnv(LowObstacle, 43)
	_, loA, hiA := SuccessRateCI(envA, ExpertPolicy{Env: envA}, 10)
	envB := NewEnv(LowObstacle, 43)
	_, loB, hiB := SuccessRateCI(envB, ExpertPolicy{Env: envB}, 100)
	if hiA-loA <= hiB-loB {
		t.Fatalf("10-episode CI width %.3f should exceed 100-episode width %.3f", hiA-loA, hiB-loB)
	}
}

// refShortestPath is ShortestPath as it was before the search moved onto
// the env's scratch: a fresh predecessor array and queue per call, and the
// path built by prepending one point at a time.
func refShortestPath(e *Env, from, to Point) []Point {
	w, h := e.cfg.ArenaW, e.cfg.ArenaH
	prev := make([]int, w*h)
	for i := range prev {
		prev[i] = -2
	}
	idx := func(p Point) int { return p.Y*w + p.X }
	queue := []Point{from}
	prev[idx(from)] = -1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			var path []Point
			for p := to; ; {
				path = append([]Point{p}, path...)
				pi := prev[idx(p)]
				if pi == -1 {
					return path
				}
				p = Point{pi % w, pi / w}
			}
		}
		for _, d := range dirs {
			nxt := Point{cur.X + d.X, cur.Y + d.Y}
			if e.Blocked(nxt) || prev[idx(nxt)] != -2 {
				continue
			}
			prev[idx(nxt)] = idx(cur)
			queue = append(queue, nxt)
		}
	}
	return nil
}

// TestReachableAgreesWithShortestPath checks, on many layouts of every
// scenario and on random pairs of cells (blocked, enclosed and free ones,
// with the dynamic obstacles in place), that reachable agrees with
// ShortestPath, that ShortestPath returns the path the reference returns,
// and that a search allocates nothing once the env's scratch exists.
func TestReachableAgreesWithShortestPath(t *testing.T) {
	unreachable := 0
	for _, s := range Scenarios {
		env := NewEnv(s, 17)
		g := tensor.NewRNG(18)
		for ep := 0; ep < 40; ep++ {
			env.Reset()
			pairs := [][2]Point{{env.Pos(), env.Goal()}}
			for q := 0; q < 16; q++ {
				pairs = append(pairs, [2]Point{
					{g.Intn(env.cfg.ArenaW), g.Intn(env.cfg.ArenaH)},
					{g.Intn(env.cfg.ArenaW), g.Intn(env.cfg.ArenaH)},
				})
			}
			for _, p := range pairs {
				want := refShortestPath(env, p[0], p[1])
				got := env.ShortestPath(p[0], p[1])
				if !slices.Equal(got, want) {
					t.Fatalf("%v episode %d: ShortestPath(%v, %v) = %v, want %v", s, ep, p[0], p[1], got, want)
				}
				if r := env.reachable(p[0], p[1]); r != (want != nil) {
					t.Fatalf("%v episode %d: reachable(%v, %v) = %v, but the path is %v", s, ep, p[0], p[1], r, want)
				}
				if want == nil {
					unreachable++
				}
			}
		}
		from, to := env.Pos(), env.Goal()
		if n := testing.AllocsPerRun(10, func() { env.reachable(from, to) }); n != 0 {
			t.Errorf("%v: reachable allocates %.1f times per search, want 0", s, n)
		}
	}
	if unreachable == 0 {
		t.Error("no pair was unreachable, so the false case went untested")
	}
}
