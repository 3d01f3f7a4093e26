package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/power"
	"autopilot/internal/space"
)

// scripted is a proposer that plays back fixed proposals and records what it
// is told; observed, when set, runs after each observation.
type scripted struct {
	rounds   [][]space.Point
	told     [][][]float64
	observed func()
}

func (p *scripted) Propose() ([]space.Point, error) {
	if len(p.rounds) == 0 {
		return nil, nil
	}
	pts := p.rounds[0]
	p.rounds = p.rounds[1:]
	return pts, nil
}

func (p *scripted) Observe(ys [][]float64) {
	p.told = append(p.told, ys)
	if p.observed != nil {
		p.observed()
	}
}

// pt is the legacy-space point with the given layer index; every other axis
// sits at its first choice.
func pt(layer int) space.Point { return space.Point{layer, 0, 0, 0, 0, 0, 0} }

// loopSearch builds a search over the default space whose evaluations run
// through a counting delegate that fails every design whose layer count is
// in failLayers. The search keeps a failure budget so failures are filed.
func loopSearch(t *testing.T, workers int, failLayers ...int) (*search, *atomic.Int64) {
	t.Helper()
	req := Request{
		Space: DefaultSpace(), DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
		Power: power.Default(), Config: smallConfig(), Workers: workers, FailureBudget: 1,
	}
	local := req.NewEvaluator()
	calls := &atomic.Int64{}
	req.Delegate = func(ctx context.Context, d DesignPoint) (Evaluated, error) {
		calls.Add(1)
		for _, l := range failLayers {
			if d.Hyper.Layers == l {
				return Evaluated{}, fmt.Errorf("test: %s fails", d)
			}
		}
		return local.EvaluateContext(ctx, d)
	}
	ps := req.Space.ParamSpace()
	return &search{req: req, ev: req.NewEvaluator(), ps: ps, res: &Result{}}, calls
}

// TestSearchBudgetCountsOnlyScoredDesigns: a failed design is used up but
// does not count, so the loop asks again; the next proposal is cut before
// its first new design past the budget and only that prefix is observed.
func TestSearchBudgetCountsOnlyScoredDesigns(t *testing.T) {
	s, calls := loopSearch(t, 4, DefaultSpace().Layers[1])
	opt := &scripted{rounds: [][]space.Point{{pt(0), pt(1), pt(2)}, {pt(3), pt(4), pt(5)}}}
	if err := s.run(context.Background(), opt, 3); err != nil {
		t.Fatal(err)
	}
	if len(s.res.Evaluated) != 3 || len(s.res.Failures) != 1 {
		t.Fatalf("%d evaluated, %d failed; want 3 and 1", len(s.res.Evaluated), len(s.res.Failures))
	}
	if calls.Load() != 4 {
		t.Fatalf("%d evaluator calls, want 4", calls.Load())
	}
	if len(opt.told) != 2 || len(opt.told[0]) != 3 || len(opt.told[1]) != 1 {
		t.Fatalf("observation lengths %v, want [3 1]", lens(opt.told))
	}
	if opt.told[0][1] != nil || opt.told[0][0] == nil || opt.told[1][0] == nil {
		t.Fatalf("failed design must be told nil, scored ones their objectives: %v", opt.told)
	}
	if want := DefaultSpace().Layers[3]; s.res.Evaluated[2].Design.Hyper.Layers != want {
		t.Fatalf("third scored design %s, want the first point of the cut proposal", s.res.Evaluated[2].Design)
	}
}

// TestSearchRevisitsCostNothing: a point already used up is answered from
// the search's record — its objectives, or nil when it failed — without an
// evaluator call, and it neither counts toward the budget nor triggers the
// cut.
func TestSearchRevisitsCostNothing(t *testing.T) {
	s, calls := loopSearch(t, 4, DefaultSpace().Layers[1])
	opt := &scripted{rounds: [][]space.Point{
		{pt(0), pt(1)},
		{pt(0), pt(2), pt(1), pt(0), pt(3)},
	}}
	if err := s.run(context.Background(), opt, 2); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d evaluator calls, want 3", calls.Load())
	}
	if len(s.res.Evaluated) != 2 {
		t.Fatalf("%d evaluated, want 2", len(s.res.Evaluated))
	}
	second := opt.told[1]
	if len(second) != 4 {
		t.Fatalf("second observation has %d vectors, want 4 (cut before pt(3))", len(second))
	}
	if !reflect.DeepEqual(second[0], opt.told[0][0]) || !reflect.DeepEqual(second[3], opt.told[0][0]) {
		t.Fatalf("revisit answered %v / %v, want %v", second[0], second[3], opt.told[0][0])
	}
	if second[2] != nil {
		t.Fatalf("revisit of a failed design answered %v, want nil", second[2])
	}
}

// TestSearchRepeatInProposalScoredOnce: a point repeated inside one
// proposal is scored once and every copy is told the same objectives.
func TestSearchRepeatInProposalScoredOnce(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s, calls := loopSearch(t, workers)
		opt := &scripted{rounds: [][]space.Point{{pt(0), pt(0), pt(1), pt(0)}}}
		if err := s.run(context.Background(), opt, 10); err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 2 || len(s.res.Evaluated) != 2 {
			t.Fatalf("workers=%d: %d calls, %d evaluated; want 2 and 2", workers, calls.Load(), len(s.res.Evaluated))
		}
		ys := opt.told[0]
		if !reflect.DeepEqual(ys[0], ys[1]) || !reflect.DeepEqual(ys[0], ys[3]) || ys[0] == nil {
			t.Fatalf("workers=%d: repeats told %v", workers, ys)
		}
	}
}

// TestSearchCancelledBetweenRounds: cancelling the context between rounds
// stops the loop before the next proposal is scored, with an error wrapping
// context.Canceled.
func TestSearchCancelledBetweenRounds(t *testing.T) {
	s, calls := loopSearch(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := &scripted{rounds: [][]space.Point{{pt(0)}, {pt(1)}}, observed: cancel}
	err := s.run(ctx, opt, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d evaluator calls, want 1", calls.Load())
	}
}

// TestSearchIsTheOnlyDedup: Execute sends every design to the evaluator
// once, probes included, so each design reaches the delegate exactly once
// and Result.CacheMisses equals the number of delegate calls. It covers
// every optimizer at the small budget with probes, the vehicle space and a
// one-choice scratchpad axis, at one and at eight workers.
func TestSearchIsTheOnlyDedup(t *testing.T) {
	oneSRAM := DefaultSpace()
	oneSRAM.SRAMKB = []int{64}
	type tc struct {
		name  string
		opt   Optimizer
		space Space
	}
	var cases []tc
	for _, opt := range []Optimizer{OptBayesian, OptGenetic, OptAnnealing, OptReinforce, OptRandom} {
		cases = append(cases, tc{opt.String(), opt, DefaultSpace()})
	}
	cases = append(cases, tc{"vehicle", OptBayesian, vehicleSpace()}, tc{"sram=64", OptBayesian, oneSRAM})
	for _, c := range cases {
		for _, workers := range []int{1, 8} {
			req := Request{
				Space: c.space, DB: surrogateDB(), Scenario: airlearning.DenseObstacle,
				Power: power.Default(), Config: smallConfig(), Optimizer: c.opt, Workers: workers,
			}
			local := req.NewEvaluator()
			var mu sync.Mutex
			calls := map[DesignPoint]int{}
			req.Delegate = func(ctx context.Context, d DesignPoint) (Evaluated, error) {
				mu.Lock()
				calls[d]++
				mu.Unlock()
				return local.EvaluateContext(ctx, d)
			}
			res, err := Execute(context.Background(), req)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			total := 0
			for d, n := range calls {
				if n != 1 {
					t.Errorf("%s workers=%d: %s reached the evaluator %d times", c.name, workers, d, n)
				}
				total += n
			}
			if int64(total) != res.CacheMisses {
				t.Errorf("%s workers=%d: %d evaluator calls, CacheMisses %d", c.name, workers, total, res.CacheMisses)
			}
		}
	}
}

func lens(told [][][]float64) []int {
	out := make([]int, len(told))
	for i, ys := range told {
		out[i] = len(ys)
	}
	return out
}
