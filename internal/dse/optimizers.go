package dse

import (
	"fmt"

	"autopilot/internal/bayesopt"
	"autopilot/internal/moea"
	"autopilot/internal/space"
)

// Optimizer selects the Phase-2 search method. The paper uses Bayesian
// optimization but notes it "can be replaced with reinforcement learning,
// evolutionary algorithms, simulated annealing etc." (§III-B); the
// alternatives are provided for the ablation studies. Every optimizer runs
// through the same search loop, so all of them work on every space and
// under a failure budget.
type Optimizer int

// Available Phase-2 optimizers.
const (
	OptBayesian Optimizer = iota
	OptGenetic
	OptAnnealing
	OptReinforce
	OptRandom
)

// String names the optimizer.
func (o Optimizer) String() string {
	switch o {
	case OptBayesian:
		return "bayesian"
	case OptGenetic:
		return "genetic"
	case OptAnnealing:
		return "annealing"
	case OptReinforce:
		return "reinforce"
	case OptRandom:
		return "random"
	default:
		return fmt.Sprintf("Optimizer(%d)", int(o))
	}
}

// newProposer builds the request's optimizer over the parameter space ps and
// returns it with the search budget: InitSamples+Iterations designs that
// return objectives (for the Bayesian optimizer, at most its candidate
// pool). Every optimizer gets the same hypervolume reference point, and the
// Bayesian optimizer screens its candidates on r.Workers goroutines.
func (r Request) newProposer(ps space.Space) (proposer, int, error) {
	cfg := r.Config
	budget := cfg.BO.InitSamples + cfg.BO.Iterations
	// ref: success can only improve hypervolume down to -1; power tops out
	// near the biggest SoC; runtime near the slowest design. In a vehicle
	// space the power objective is the full-vehicle draw (rotors dominate,
	// hundreds of watts) and the third objective is −missions.
	ref := []float64{0, 30, 1}
	if r.Space.HasVehicleAxes() {
		ref = []float64{0, 600, 0}
	}
	var opt proposer
	var err error
	switch r.Optimizer {
	case OptBayesian:
		pts := ps.Sample(cfg.CandidatePool, cfg.Seed)
		feats := make([][]float64, len(pts))
		for i, p := range pts {
			feats[i] = ps.Vector(p)
		}
		bo := cfg.BO
		bo.Workers = r.Workers
		opt, err = bayesopt.New(pts, feats, ref, bo)
		budget = min(budget, len(pts))
	case OptGenetic:
		c := moea.DefaultGAConfig()
		c.Seed = cfg.Seed
		opt, err = moea.NewGA(ps.Dims(), c)
	case OptAnnealing:
		c := moea.DefaultSAConfig()
		c.Seed, c.Steps = cfg.Seed, budget/c.Chains
		opt, err = moea.NewSA(ps.Dims(), ref, c)
	case OptReinforce:
		c := moea.DefaultRLConfig()
		c.Seed = cfg.Seed
		opt, err = moea.NewRL(ps.Dims(), ref, c)
	case OptRandom:
		opt = &randomSearch{pts: ps.Sample(budget, cfg.Seed)}
	default:
		err = fmt.Errorf("dse: unknown optimizer %v", r.Optimizer)
	}
	if err != nil {
		return nil, 0, err
	}
	return opt, budget, nil
}

// randomSearch proposes the space's seeded uniform sample, corners
// included, in one batch.
type randomSearch struct{ pts []space.Point }

func (r *randomSearch) Propose() ([]space.Point, error) {
	pts := r.pts
	r.pts = nil
	return pts, nil
}

func (r *randomSearch) Observe([][]float64) {}

// Enumerate materializes every design point of the space in the parameter
// layer's deterministic enumeration order (last axis fastest — the legacy
// nested-loop order). It refuses spaces above the limit — exhaustive sweeps
// are only tractable on pinned or reduced spaces (the paper's Phase 2
// exists because the full space is ~10^18). A limit of 0 defaults to 65536
// points.
func (s Space) Enumerate(limit int64) ([]DesignPoint, error) {
	ps := s.ParamSpace()
	pts, err := ps.Enumerate(limit)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	out := make([]DesignPoint, len(pts))
	for i, p := range pts {
		d, err := s.FromPoint(p)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}
