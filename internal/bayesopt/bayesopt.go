// Package bayesopt implements the paper's Phase-2 optimizer: multi-objective
// Bayesian optimization over a discrete design space with the
// S-Metric-Selection Efficient Global Optimization (SMS-EGO) acquisition
// function (§III-B). The objectives are modelled by Gaussian processes that
// share one covariance factor, with one weight vector α per objective.
// Candidates are scored by the hypervolume contribution of their
// lower-confidence-bound estimate over the current Pareto front, with a
// penalty for epsilon-dominated candidates.
//
// The optimizer keeps one posterior for the whole run. Each proposal
// standardizes the objectives again, appends a factor row for every design
// observed since the last proposal and solves the weights for the new
// targets; it refits from scratch only for the first posterior and when an
// append is refused, which the jitter schedule alone causes. The kernel
// values between the observations and the screened candidates live in a
// cache that computes each value once, when its candidate is screened, and
// grows with the observations and the candidates screened, never with the
// candidate pool. Every posterior and every kernel value is bitwise what a
// refit from scratch computes.
//
// The screening loop cuts the screened candidates into blocks of
// gp.BlockSize and scores them on up to Config.Workers of internal/pool's
// goroutines, each of which claims the next unscored block in screen order.
// Before the fan-out the kernel cache gives each screened candidate its
// slot, in screen order, so a worker writes only its own candidates' slots.
// A worker predicts a block with one forward solve and scores it against its
// own copy of the front, sorted once per iteration, over scratch it keeps
// for the optimizer's lifetime, so scoring a candidate allocates nothing.
// Every score is bitwise what scoring the candidate alone gives, each block
// keeps its first best, and the blocks' bests are reduced in screen order,
// so the proposal is bitwise the same at every worker count.
//
// The optimizer is an ask/tell proposer (BO): it proposes candidates and is
// told their objectives, and leaves evaluation, caching, budgets and failure
// handling to its caller, the dse search loop.
package bayesopt

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"autopilot/internal/gp"
	"autopilot/internal/pareto"
	"autopilot/internal/pool"
	"autopilot/internal/space"
	"autopilot/internal/tensor"
)

// Config controls the optimization loop.
type Config struct {
	InitSamples int     // random evaluations before the model-guided phase
	Iterations  int     // model-guided evaluations
	ScreenSize  int     // candidates scored per iteration (subsampled)
	Gain        float64 // LCB gain (how optimistic the acquisition is)
	Noise       float64 // GP observation noise
	LengthScale float64 // SE kernel length scale in normalized feature space
	Seed        int64
	// Workers bounds the goroutines that score the screened candidates;
	// <= 0 means runtime.NumCPU(). Proposals are bitwise the same for any
	// value, and 1 scores the screen on the calling goroutine.
	Workers int
}

// DefaultConfig returns settings that work well on the DSSoC space.
func DefaultConfig() Config {
	return Config{
		InitSamples: 16,
		Iterations:  48,
		ScreenSize:  1024,
		Gain:        1.0,
		Noise:       1e-6,
		LengthScale: 0.35,
		Seed:        1,
	}
}

// BO is the Bayesian optimizer as an ask/tell proposer over a fixed
// candidate set. Its first proposal is the random initialization, the first
// InitSamples candidates of a seeded permutation; every later proposal is
// the one candidate the acquisition function scores best among a screened
// subsample of the candidates not yet told. It proposes nothing once every
// candidate has been told. BO never scores a design itself: the caller
// evaluates each proposal and reports the objectives through Observe.
type BO struct {
	cfg    Config
	points []space.Point
	cands  [][]float64 // normalized features, index-aligned with points
	ref    []float64
	rng    *tensor.RNG
	kernel gp.SE
	mod    model       // the posterior, extended as observations arrive
	cache  kernelCache // k(observation, screened candidate)

	scorers []*scorer // the screen's workers' scratch
	picks   []pick    // each screened block's first best, in screen order

	started bool
	nInit   int
	pending []int        // candidate indices of the last proposal
	told    map[int]bool // candidates observed, failed ones included
	feats   [][]float64  // features of the designs that returned objectives
	objs    [][]float64  // their objective vectors, in observation order
}

// New builds the optimizer over candidate points and their normalized
// feature vectors. ref is the hypervolume reference point; every reachable
// objective vector should be component-wise below it, and its length is the
// number of objectives.
func New(points []space.Point, feats [][]float64, ref []float64, cfg Config) (*BO, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("bayesopt: empty candidate set")
	}
	if len(feats) != len(points) {
		return nil, fmt.Errorf("bayesopt: %d feature vectors for %d candidates", len(feats), len(points))
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("bayesopt: empty reference point")
	}
	if cfg.InitSamples <= 0 || cfg.Iterations < 0 {
		return nil, fmt.Errorf("bayesopt: bad budget %+v", cfg)
	}
	kernel := gp.SE{Variance: 1, LengthScale: cfg.LengthScale}
	return &BO{
		cfg: cfg, points: points, cands: feats, ref: ref,
		rng:    tensor.NewRNG(cfg.Seed),
		kernel: kernel,
		cache:  newKernelCache(kernel, feats, cfg.ScreenSize, cfg.Iterations),
		told:   map[int]bool{},
	}, nil
}

// Propose returns the next candidates to evaluate: the initial random
// sample, then one model-guided candidate per call, and nothing once the
// candidates are exhausted. It fails when none of the initial samples
// returned objectives, and when scoring the screen panics: the pool
// recovers the panic into an error wrapping a *fault.PanicError.
func (b *BO) Propose() ([]space.Point, error) {
	if !b.started {
		b.started = true
		b.nInit = min(b.cfg.InitSamples, len(b.points))
		return b.propose(b.rng.Perm(len(b.points))[:b.nInit]...), nil
	}
	if len(b.objs) == 0 {
		return nil, fmt.Errorf("bayesopt: all %d initial samples failed to evaluate", b.nInit)
	}
	if err := b.mod.update(b.feats, b.objs, len(b.ref), b.kernel, b.cfg.Noise+1e-9); err != nil {
		return nil, err
	}
	front := pareto.Filter(b.objs)
	screened := screen(b.rng, len(b.points), b.told, b.cfg.ScreenSize)
	if len(screened) == 0 {
		return nil, nil
	}
	b.cache.reserve(screened, len(b.feats))
	blocks := (len(screened) + gp.BlockSize - 1) / gp.BlockSize
	for len(b.picks) < blocks {
		b.picks = append(b.picks, pick{})
	}
	w := min(pool.Workers(b.cfg.Workers), blocks)
	for len(b.scorers) < w {
		b.scorers = append(b.scorers, &scorer{blk: newBlock(len(b.ref))})
	}
	var next atomic.Int64 // the next block to score
	err := pool.Run(context.TODO(), w, w, func(i int) error {
		b.score(b.scorers[i], screened, &next, front)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bayesopt: screen: %w", err)
	}
	return b.propose(reduce(b.picks[:blocks]).index), nil
}

// scorer is one screen worker's scratch: a block and the front, prepared for
// SMS-EGO's contributions. It is made once and kept for the optimizer's
// lifetime.
type scorer struct {
	blk   *block
	front pareto.Front
}

// score claims the screen's blocks from next, in screen order, until none is
// left, and predicts and scores each block's candidates over s, recording
// the block's first best in b.picks. A block's predictions and best do not
// depend on which scorer claims it. score writes only s, the picks of the
// blocks it claims and the kernel cache's slots of their candidates, so
// scorers may share a screen concurrently.
func (b *BO) score(s *scorer, screened []int, next *atomic.Int64, front [][]float64) {
	blk := s.blk
	for len(blk.scratch) < len(b.feats) {
		blk.scratch = append(blk.scratch, [gp.BlockSize]float64{})
	}
	s.front.Prepare(front, b.ref)
	for {
		k := int(next.Add(1)) - 1
		start := k * gp.BlockSize
		if start >= len(screened) {
			return
		}
		cands := screened[start:min(start+gp.BlockSize, len(screened))]
		for c, ci := range cands {
			blk.x[c] = b.cands[ci]
			b.cache.fill(b.feats, ci, blk.scratch, c)
		}
		b.mod.predict(blk, len(cands))
		best := newPick()
		for c, ci := range cands {
			best.offer(ci, smsEGO(blk.mu[c], blk.sd[c], front, &s.front, b.ref, b.cfg.Gain))
		}
		b.picks[k] = best
	}
}

// pick is a scan for the first best candidate under a strict >: a candidate
// replaces the best only when its score is greater, so of tied scores the
// first is kept and a NaN score never wins. Offering the blocks' bests in
// screen order to a new pick therefore gives the candidate one scan over the
// whole screen gives.
type pick struct {
	index int // -1 until a score beats -Inf
	score float64
}

func newPick() pick { return pick{index: -1, score: math.Inf(-1)} }

// offer makes candidate index the best if score beats the best so far.
func (p *pick) offer(index int, score float64) {
	if score > p.score {
		p.index, p.score = index, score
	}
}

// reduce offers picks in order and returns the first best of them.
func reduce(picks []pick) pick {
	best := newPick()
	for _, p := range picks {
		best.offer(p.index, p.score)
	}
	return best
}

func (b *BO) propose(idx ...int) []space.Point {
	b.pending = idx
	out := make([]space.Point, len(idx))
	for j, i := range idx {
		out[j] = b.points[i]
	}
	return out
}

// Observe tells the optimizer the objectives of its last proposal, in order;
// ys may cover only a prefix of it. A nil vector marks a design that failed
// or was skipped: its candidate is used up but adds no point to the models.
func (b *BO) Observe(ys [][]float64) {
	for j, y := range ys {
		i := b.pending[j]
		b.told[i] = true
		if y == nil {
			continue
		}
		if len(y) != len(b.ref) {
			panic(fmt.Sprintf("bayesopt: told %d objectives, want %d", len(y), len(b.ref)))
		}
		b.objs = append(b.objs, y)
		b.feats = append(b.feats, b.cands[i])
	}
	b.pending = nil
}

// model is the posterior the acquisition scores with: one GP over the
// standardized objectives, sharing one covariance factor and kept for the
// whole run, plus each objective's (mean, std) of this iteration, used to
// de-standardize its predictions.
type model struct {
	gp     *gp.GP
	scales [][2]float64
}

// update standardizes each of the m objectives and brings the posterior up
// to the observations: it appends the inputs observed since the last update
// and solves the weights for the new targets. With no posterior yet, or when
// Append refuses, it fits all the inputs with gp.FitMulti instead. Either
// way the posterior is bitwise the one FitMulti fits.
func (mod *model) update(feats [][]float64, objs [][]float64, m int, kernel gp.SE, noise float64) error {
	ys := make([][]float64, m)
	mod.scales = make([][2]float64, m)
	for j := 0; j < m; j++ {
		y := make([]float64, len(objs))
		mean, sd := 0.0, 0.0
		for i, o := range objs {
			y[i] = o[j]
			mean += o[j]
		}
		mean /= float64(len(y))
		for _, v := range y {
			sd += (v - mean) * (v - mean)
		}
		sd = math.Sqrt(sd / float64(len(y)))
		if sd < 1e-12 {
			sd = 1
		}
		for i := range y {
			y[i] = (y[i] - mean) / sd
		}
		ys[j] = y
		mod.scales[j] = [2]float64{mean, sd}
	}
	extended := mod.gp != nil
	for extended && mod.gp.Len() < len(feats) {
		extended = mod.gp.Append(feats[mod.gp.Len()])
	}
	if extended {
		return mod.gp.SetTargets(ys)
	}
	g, err := gp.FitMulti(feats, ys, kernel, noise)
	if err != nil {
		return err
	}
	mod.gp = g
	return nil
}

// kernelCache holds the kernel values k(feats[i], cands[c]) between the
// observations and the candidates the run has screened, and computes each of
// them once, when its candidate is screened. Row i belongs to observation i
// and holds one value per slot; a candidate takes the next slot the first
// time it is screened, and a slot is filled up to the latest observation
// whenever its candidate is screened. So the values grow with the
// observations and the candidates screened, never with the pool, which only
// the slot index spans: the rows start with room for every candidate a run
// can screen when none of its designs fail, and double when failed or
// skipped designs add rounds.
type kernelCache struct {
	kernel gp.Kernel
	cands  [][]float64
	slot   []int32     // candidate c's slot plus one, 0 until c is screened
	filled []int32     // the observations whose values each slot holds
	used   int         // slots taken
	rows   [][]float64 // rows[i][s] = k(feats[i], the candidate in slot s)
}

// newKernelCache makes a cache over the candidates cands whose rows have
// room for screen candidates in each of iterations+1 rounds, or for every
// candidate, whichever is fewer.
func newKernelCache(kernel gp.Kernel, cands [][]float64, screen, iterations int) kernelCache {
	width := len(cands)
	if screen > 0 && iterations < width/screen {
		width = screen * (iterations + 1)
	}
	return kernelCache{kernel: kernel, cands: cands, slot: make([]int32, len(cands)), filled: make([]int32, width)}
}

// reserve readies the cache for a screen: in screened's order it gives each
// candidate screened for the first time the next slot, doubling every row
// when the slots run out, and it adds rows up to n observations. After it,
// fill writes only its own candidate's slot.
func (kc *kernelCache) reserve(screened []int, n int) {
	for _, ci := range screened {
		if kc.slot[ci] > 0 {
			continue
		}
		if kc.used == len(kc.filled) {
			grow := min(len(kc.cands), max(2*kc.used, 1)) - kc.used
			kc.filled = append(kc.filled, make([]int32, grow)...)
			for i, row := range kc.rows {
				kc.rows[i] = append(row, make([]float64, grow)...)
			}
		}
		kc.used++
		kc.slot[ci] = int32(kc.used)
	}
	for len(kc.rows) < n {
		kc.rows = append(kc.rows, make([]float64, len(kc.filled)))
	}
}

// fill writes k(feats[i], cands[ci]) into ks[i][c] for every observation
// i, computing only the values the cache does not hold yet. A reserve for
// ci and len(feats) must come first. fill writes only ci's slot, so fills
// of distinct candidates may run concurrently.
func (kc *kernelCache) fill(feats [][]float64, ci int, ks [][gp.BlockSize]float64, c int) {
	s := int(kc.slot[ci]) - 1
	x := kc.cands[ci]
	for i := int(kc.filled[s]); i < len(feats); i++ {
		kc.rows[i][s] = kc.kernel.Eval(feats[i], x)
	}
	kc.filled[s] = int32(len(feats))
	for i, row := range kc.rows[:len(feats)] {
		ks[i][c] = row[s]
	}
}

// block is a scorer's scratch: a block of candidates, their kernel values,
// their posterior predictions and the GP's work space. It is kept for the
// optimizer's lifetime, so scoring a candidate allocates nothing.
type block struct {
	x        [gp.BlockSize][]float64 // the candidates' features
	mu, sd   [gp.BlockSize][]float64 // per objective, de-standardized
	variance [gp.BlockSize]float64
	scratch  [][gp.BlockSize]float64 // k(observation i, candidate c), then the solve
}

// newBlock makes a block for m objectives.
func newBlock(m int) *block {
	b := &block{}
	for c := range b.mu {
		b.mu[c], b.sd[c] = make([]float64, m), make([]float64, m)
	}
	return b
}

// predict writes each objective's de-standardized posterior mean and
// standard deviation at the block's first n candidates, whose kernel values
// b.scratch holds, into b.mu and b.sd.
func (m *model) predict(b *block, n int) {
	m.gp.PredictBlock(b.x[:n], b.mu[:n], b.variance[:n], b.scratch)
	for c := range n {
		mu, sd := b.mu[c], b.sd[c]
		for j, s := range m.scales {
			mu[j] = mu[j]*s[1] + s[0]
			sd[j] = math.Sqrt(b.variance[c]) * s[1]
		}
	}
}

// screen returns up to n unevaluated candidate indices sampled without
// replacement.
func screen(rng *tensor.RNG, total int, evaluated map[int]bool, n int) []int {
	remaining := total - len(evaluated)
	if remaining <= 0 {
		return nil
	}
	if remaining <= n {
		out := make([]int, 0, remaining)
		for i := 0; i < total; i++ {
			if !evaluated[i] {
				out = append(out, i)
			}
		}
		return out
	}
	out := make([]int, 0, n)
	seen := make([]bool, total) // one allocation, whatever n is
	for len(out) < n {
		i := rng.Intn(total)
		if evaluated[i] || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out
}

// smsEGO is the SMS-EGO score of a candidate with posterior mean mu and
// standard deviation sd: the hypervolume contribution of its LCB estimate,
// with a dominance penalty when the LCB point is epsilon-dominated by the
// current front. It overwrites mu with the LCB. The penalty reads the front
// in observation order, because its "no penalty yet" test, penalty == 0,
// also matches a zero slack, which makes it order-dependent; the
// contribution reads prepared, the same front sorted once per iteration.
func smsEGO(mu, sd []float64, front [][]float64, prepared *pareto.Front, ref []float64, gain float64) float64 {
	lcb := mu
	for j := range lcb {
		lcb[j] -= gain * sd[j]
	}
	// dominance penalty: distance by which the closest front point beats lcb
	penalty := 0.0
	for _, f := range front {
		if pareto.WeaklyDominates(f, lcb) {
			slack := 0.0
			for j := range f {
				d := (lcb[j] - f[j]) / math.Max(math.Abs(ref[j]), 1e-9)
				if d > slack {
					slack = d
				}
			}
			if penalty == 0 || slack < penalty {
				penalty = slack
			}
		}
	}
	if penalty > 0 {
		return -penalty
	}
	return prepared.Contribution(lcb)
}
