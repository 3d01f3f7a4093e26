// Package moea provides the alternative multi-objective optimizers the paper
// names as drop-in replacements for Bayesian optimization in Phase 2
// (§III-B / Table VI: "the bayesian optimization method can be replaced with
// reinforcement learning, evolutionary algorithms, simulated annealing"):
// an NSGA-II-style genetic algorithm (GA), a scalarized simulated annealer
// (SA) and a REINFORCE policy-gradient searcher (RL).
//
// All three are ask/tell proposers over a discrete choice-vector genome —
// one index per design dimension, exactly a space.Point of the dse
// parameter space. Propose returns the genomes to score next (none once the
// optimizer is done) and Observe tells it their objective vectors in order,
// nil for a design that failed or was skipped, possibly for only a prefix of
// the proposal when the caller's budget runs out. None of them evaluates,
// caches or deduplicates designs: the caller answers a revisited genome
// with its recorded objectives.
package moea

import (
	"fmt"
	"math"
	"sort"

	"autopilot/internal/pareto"
	"autopilot/internal/space"
	"autopilot/internal/tensor"
)

// checkProblem validates the genome layout and, when the optimizer uses
// one, the hypervolume reference point.
func checkProblem(dims []int, ref []float64, needRef bool) error {
	if len(dims) == 0 {
		return fmt.Errorf("moea: empty genome")
	}
	for i, d := range dims {
		if d <= 0 {
			return fmt.Errorf("moea: dimension %d has cardinality %d", i, d)
		}
	}
	if needRef && len(ref) == 0 {
		return fmt.Errorf("moea: empty reference point")
	}
	return nil
}

// randomGenome draws one index per dimension.
func randomGenome(rng *tensor.RNG, dims []int) space.Point {
	g := make(space.Point, len(dims))
	for i, d := range dims {
		g[i] = rng.Intn(d)
	}
	return g
}

// Individual is one evaluated genome.
type Individual struct {
	Genome     space.Point
	Objectives []float64
}

// GAConfig controls the genetic algorithm.
type GAConfig struct {
	Population  int
	Generations int
	CrossoverP  float64
	MutationP   float64 // per-gene mutation probability
	TournamentK int
	Seed        int64
}

// DefaultGAConfig returns settings sized like the Phase-2 BO budget.
func DefaultGAConfig() GAConfig {
	return GAConfig{
		Population: 24, Generations: 12,
		CrossoverP: 0.9, MutationP: 0.15, TournamentK: 2,
		Seed: 1,
	}
}

// GA is an NSGA-II-style multi-objective genetic algorithm: fast
// non-dominated sorting plus crowding-distance environmental selection. It
// proposes a random initial population, then one generation of offspring
// per call, Generations times. Individuals told nil never enter the
// population; while the population is empty the GA proposes a fresh random
// one instead of offspring.
type GA struct {
	cfg  GAConfig
	dims []int
	rng  *tensor.RNG
	pop  []Individual
	kids []space.Point // the last proposal
	gen  int           // proposals made so far
}

// NewGA builds the genetic algorithm over genomes with the given
// per-dimension cardinalities.
func NewGA(dims []int, cfg GAConfig) (*GA, error) {
	if err := checkProblem(dims, nil, false); err != nil {
		return nil, err
	}
	if cfg.Population < 4 || cfg.Generations < 1 {
		return nil, fmt.Errorf("moea: bad GA budget %+v", cfg)
	}
	return &GA{cfg: cfg, dims: dims, rng: tensor.NewRNG(cfg.Seed)}, nil
}

// Propose returns the next population or generation of offspring.
func (g *GA) Propose() ([]space.Point, error) {
	if g.gen > g.cfg.Generations {
		return nil, nil
	}
	g.gen++
	g.kids = make([]space.Point, 0, g.cfg.Population)
	if len(g.pop) == 0 {
		for range g.cfg.Population {
			g.kids = append(g.kids, randomGenome(g.rng, g.dims))
		}
		return g.kids, nil
	}
	ranks, crowd := rankAndCrowd(g.pop)
	tournament := func() Individual {
		best := g.rng.Intn(len(g.pop))
		for k := 1; k < g.cfg.TournamentK; k++ {
			c := g.rng.Intn(len(g.pop))
			if ranks[c] < ranks[best] || (ranks[c] == ranks[best] && crowd[c] > crowd[best]) {
				best = c
			}
		}
		return g.pop[best]
	}
	for len(g.kids) < g.cfg.Population {
		a, b := tournament(), tournament()
		child := a.Genome.Clone()
		if g.rng.Float64() < g.cfg.CrossoverP {
			for i := range child {
				if g.rng.Float64() < 0.5 {
					child[i] = b.Genome[i]
				}
			}
		}
		for i := range child {
			if g.rng.Float64() < g.cfg.MutationP {
				child[i] = g.rng.Intn(g.dims[i])
			}
		}
		g.kids = append(g.kids, child)
	}
	return g.kids, nil
}

// Observe tells the GA the objectives of its last proposal. Offspring
// compete with the current population for its places.
func (g *GA) Observe(ys [][]float64) {
	var told []Individual
	for j, y := range ys {
		if y != nil {
			told = append(told, Individual{Genome: g.kids[j], Objectives: y})
		}
	}
	if len(g.pop) == 0 {
		g.pop = told
		return
	}
	g.pop = environmentalSelect(append(g.pop, told...), g.cfg.Population)
}

// rankAndCrowd computes non-domination ranks and crowding distances.
func rankAndCrowd(pop []Individual) (ranks []int, crowd []float64) {
	n := len(pop)
	ranks = make([]int, n)
	crowd = make([]float64, n)
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	rank := 0
	for len(remaining) > 0 {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && pareto.Dominates(pop[j].Objectives, pop[i].Objectives) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		for _, i := range front {
			ranks[i] = rank
		}
		assignCrowding(pop, front, crowd)
		remaining = rest
		rank++
	}
	return ranks, crowd
}

// assignCrowding adds crowding distances for one front.
func assignCrowding(pop []Individual, front []int, crowd []float64) {
	if len(front) == 0 {
		return
	}
	m := len(pop[front[0]].Objectives)
	for obj := 0; obj < m; obj++ {
		sort.Slice(front, func(a, b int) bool {
			return pop[front[a]].Objectives[obj] < pop[front[b]].Objectives[obj]
		})
		lo := pop[front[0]].Objectives[obj]
		hi := pop[front[len(front)-1]].Objectives[obj]
		crowd[front[0]] = math.Inf(1)
		crowd[front[len(front)-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < len(front)-1; k++ {
			gap := pop[front[k+1]].Objectives[obj] - pop[front[k-1]].Objectives[obj]
			crowd[front[k]] += gap / (hi - lo)
		}
	}
}

// environmentalSelect keeps the best n individuals by (rank, crowding), or
// all of them when fewer than n survived.
func environmentalSelect(pop []Individual, n int) []Individual {
	ranks, crowd := rankAndCrowd(pop)
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ranks[idx[a]] != ranks[idx[b]] {
			return ranks[idx[a]] < ranks[idx[b]]
		}
		return crowd[idx[a]] > crowd[idx[b]]
	})
	out := make([]Individual, 0, n)
	for _, i := range idx[:min(n, len(idx))] {
		out = append(out, pop[i])
	}
	return out
}

// SAConfig controls the simulated annealer.
type SAConfig struct {
	Chains int     // independent chains with random scalarization weights
	Steps  int     // annealing steps per chain
	TempHi float64 // initial temperature
	TempLo float64 // final temperature
	Seed   int64
}

// DefaultSAConfig returns settings sized like the Phase-2 BO budget.
func DefaultSAConfig() SAConfig {
	return SAConfig{Chains: 4, Steps: 24, TempHi: 1.0, TempLo: 0.01, Seed: 1}
}

// SA is weighted-sum simulated annealing: each chain draws a random weight
// vector over the objectives (normalized by the reference point) and
// anneals a single genome; together the chains trace out the Pareto front.
// It proposes one genome per call — a chain's random start, then Steps
// single-gene mutations of its current genome. A genome told nil has
// infinite energy: it is never accepted, and a chain that starts on one
// moves to its first neighbor that scores.
type SA struct {
	cfg  SAConfig
	dims []int
	ref  []float64
	rng  *tensor.RNG

	chains int // chains started
	step   int // steps observed in the current chain; -1 before its start
	w      []float64
	cur    space.Point
	curE   float64
	next   space.Point // the last proposal
}

// NewSA builds the annealer over genomes with the given per-dimension
// cardinalities; ref normalizes the objectives and sets their number.
func NewSA(dims []int, ref []float64, cfg SAConfig) (*SA, error) {
	if err := checkProblem(dims, ref, true); err != nil {
		return nil, err
	}
	if cfg.Chains < 1 || cfg.Steps < 1 {
		return nil, fmt.Errorf("moea: bad SA budget %+v", cfg)
	}
	return &SA{cfg: cfg, dims: dims, ref: ref, rng: tensor.NewRNG(cfg.Seed), step: cfg.Steps}, nil
}

// Propose returns the next genome of the running chain, starts the next
// chain, or returns nothing once every chain has finished.
func (s *SA) Propose() ([]space.Point, error) {
	if s.step == s.cfg.Steps {
		if s.chains == s.cfg.Chains {
			return nil, nil
		}
		s.chains++
		s.step = -1
		s.w = make([]float64, len(s.ref))
		sum := 0.0
		for i := range s.w {
			s.w[i] = s.rng.Float64() + 1e-3
			sum += s.w[i]
		}
		for i := range s.w {
			s.w[i] /= sum
		}
		s.next = randomGenome(s.rng, s.dims)
		return []space.Point{s.next}, nil
	}
	s.next = s.cur.Clone()
	i := s.rng.Intn(len(s.next))
	s.next[i] = s.rng.Intn(s.dims[i])
	return []space.Point{s.next}, nil
}

// Observe scores the proposed genome and applies the Metropolis acceptance
// test at the step's temperature.
func (s *SA) Observe(ys [][]float64) {
	if len(ys) == 0 {
		return
	}
	e := s.energy(ys[0])
	if s.step < 0 {
		s.cur, s.curE = s.next, e
	} else {
		denom := math.Max(float64(s.cfg.Steps-1), 1)
		temp := s.cfg.TempHi * math.Pow(s.cfg.TempLo/s.cfg.TempHi, float64(s.step)/denom)
		if e < s.curE || s.rng.Float64() < math.Exp((s.curE-e)/math.Max(temp, 1e-12)) {
			s.cur, s.curE = s.next, e
		}
	}
	s.step++
}

// energy is the chain's weighted sum of the objectives, each normalized by
// the reference point so they are comparable; +Inf for a nil vector.
func (s *SA) energy(y []float64) float64 {
	if y == nil {
		return math.Inf(1)
	}
	e := 0.0
	for i := range y {
		e += s.w[i] * y[i] / math.Max(math.Abs(s.ref[i]), 1e-9)
	}
	return e
}
