// Package gp implements Gaussian-process regression with the squared
// exponential kernel — the statistical model the paper's Bayesian optimizer
// builds of its objectives (§III-B: "the widely-used squared exponential (SE)
// kernel is used due to its simplicity"). Objectives observed at the same
// inputs share one covariance factor and one forward solve per prediction.
//
// A posterior grows with its observations: Append adds one input's row to
// the factor, bitwise the row FitMulti would compute, and SetTargets solves
// the weights again for new targets, so a caller that observes one input at
// a time never refits. PredictBlock makes up to BlockSize predictions with
// one pass of the forward solve over the factor, from kernel values its
// caller supplies, so a caller can compute each k(input, query) once and
// keep it.
package gp

import (
	"fmt"
	"math"
)

// Kernel is a positive-definite covariance function.
type Kernel interface {
	Eval(a, b []float64) float64
}

// SE is the squared exponential (RBF) kernel
// k(a,b) = Variance · exp(-½ Σ ((aᵢ-bᵢ)/LengthScale)²).
type SE struct {
	Variance    float64
	LengthScale float64
}

// Eval computes the kernel value.
func (k SE) Eval(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("gp: kernel input dims %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := (a[i] - b[i]) / k.LengthScale
		s += d * d
	}
	return k.Variance * math.Exp(-0.5*s)
}

// GP is a fitted Gaussian-process posterior over one or more objectives
// observed at the same inputs. The objectives share the kernel and the noise,
// so they share one covariance factor and differ only in their weights α.
type GP struct {
	kernel   Kernel
	noise    float64
	x        [][]float64
	l        [][]float64 // Cholesky factor of K + noise·I; row i holds at least i+1 entries
	alpha    [][]float64 // (K + noise·I)⁻¹ yⱼ, one per objective
	jittered bool        // the factor needed the jitter schedule
}

// jitterSchedule holds the escalating diagonal jitter magnitudes tried when
// an initial Cholesky factorization fails: each is added to the covariance
// diagonal (scaled by its mean magnitude) and the factorization retried. A
// factorization that succeeds without jitter is never perturbed, so
// well-conditioned fits stay bitwise identical to the unguarded path.
var jitterSchedule = []float64{1e-10, 1e-8, 1e-6, 1e-4}

// Fit conditions a GP on observations (X, y). noise is the observation
// noise variance added to the kernel diagonal; it must be positive to keep
// the system well conditioned. Targets must be finite. If the covariance is
// numerically indefinite (near-duplicate inputs, extreme length scales), Fit
// escalates through a small diagonal-jitter schedule before giving up.
func Fit(x [][]float64, y []float64, kernel Kernel, noise float64) (*GP, error) {
	return FitMulti(x, [][]float64{y}, kernel, noise)
}

// FitMulti conditions one GP per target vector ys[j] on the shared inputs X,
// factoring the covariance once. Each objective's model is bitwise the one
// Fit(x, ys[j], kernel, noise) returns: the factor and the jitter decision
// depend only on X, the kernel and the noise.
func FitMulti(x [][]float64, ys [][]float64, kernel Kernel, noise float64) (*GP, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("gp: no training points")
	}
	if noise <= 0 {
		return nil, fmt.Errorf("gp: noise variance must be positive, got %g", noise)
	}
	if err := checkTargets(n, ys); err != nil {
		return nil, err
	}
	k := make([][]float64, n)
	meanDiag := 0.0
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := kernel.Eval(x[i], x[j])
			k[i][j] = v
			k[j][i] = v
		}
		k[i][i] += noise
		meanDiag += k[i][i]
	}
	meanDiag /= float64(n)
	l, err := Cholesky(k)
	jittered := err != nil
	for _, jitter := range jitterSchedule {
		if err == nil {
			break
		}
		eps := jitter * meanDiag
		for i := 0; i < n; i++ {
			k[i][i] += eps
		}
		l, err = Cholesky(k)
	}
	if err != nil {
		return nil, fmt.Errorf("gp: covariance not positive definite: %w", err)
	}
	xs := make([][]float64, n)
	for i, xi := range x {
		xs[i] = append([]float64(nil), xi...)
	}
	g := &GP{kernel: kernel, noise: noise, x: xs, l: l, jittered: jittered}
	g.solve(ys)
	return g, nil
}

// checkTargets reports the first target vector that does not hold n finite
// values.
func checkTargets(n int, ys [][]float64) error {
	for _, y := range ys {
		if len(y) != n {
			return fmt.Errorf("gp: %d inputs but %d targets", n, len(y))
		}
		for i, yi := range y {
			if math.IsNaN(yi) || math.IsInf(yi, 0) {
				return fmt.Errorf("gp: target %d is non-finite (%g)", i, yi)
			}
		}
	}
	return nil
}

// solve sets the weights α to one solve per target vector.
func (g *GP) solve(ys [][]float64) {
	g.alpha = make([][]float64, len(ys))
	for j, y := range ys {
		g.alpha[j] = SolveCholesky(g.l, y)
	}
}

// Len returns the number of training inputs.
func (g *GP) Len() int { return len(g.x) }

// Append adds input x to the posterior by adding row n of the Cholesky
// factor. It runs Cholesky's loop in Cholesky's order over the kernel values
// FitMulti fills K with, Eval(x, xⱼ) and Eval(x, x) + noise, and row n
// depends only on rows 0..n of K, so the extended factor is bitwise the one
// FitMulti factors for all n+1 inputs. Append refuses, returning false and
// leaving g unchanged, when g's factor needed the jitter schedule or the new
// pivot is not positive; the caller then refits with FitMulti, which jitters
// exactly as it always has. A jittered set stays on that path, because its
// leading block fails at the same pivot. Append drops the weights, so
// SetTargets must solve them for n+1 targets before the next prediction.
func (g *GP) Append(x []float64) bool {
	if g.jittered {
		return false
	}
	n := len(g.x)
	row := make([]float64, n+1)
	for j, xj := range g.x {
		sum := g.kernel.Eval(x, xj)
		lj := g.l[j]
		for p := 0; p < j; p++ {
			sum -= row[p] * lj[p]
		}
		row[j] = sum / lj[j]
	}
	sum := g.kernel.Eval(x, x) + g.noise
	for p := 0; p < n; p++ {
		sum -= row[p] * row[p]
	}
	if sum <= 0 {
		return false
	}
	row[n] = math.Sqrt(sum)
	g.x = append(g.x, append([]float64(nil), x...))
	g.l = append(g.l, row)
	g.alpha = nil
	return true
}

// SetTargets solves each objective's weights again for targets ys, one
// vector per objective with one value per input, bitwise as FitMulti solves
// them. It returns FitMulti's error, leaving g unchanged, when a vector's
// length is not the number of inputs or a target is not finite.
func (g *GP) SetTargets(ys [][]float64) error {
	if err := checkTargets(len(g.x), ys); err != nil {
		return err
	}
	g.solve(ys)
	return nil
}

// Predict returns the posterior mean of the first objective and the
// posterior variance at a query point. The variance is the latent-function
// variance (it excludes observation noise) and is clamped at zero against
// round-off.
func (g *GP) Predict(q []float64) (mean, variance float64) {
	var m [1]float64
	variance = g.PredictMulti(q, m[:])
	return m[0], variance
}

// PredictMulti writes objective j's posterior mean at q into means[j] and
// returns the posterior variance, which all objectives share; means may be
// shorter than the number of objectives, never longer. It costs one kernel
// vector and one forward solve however many objectives it predicts.
//
// PredictMulti is the reference for PredictBlock, which must agree with it
// bit for bit.
func (g *GP) PredictMulti(q []float64, means []float64) (variance float64) {
	ks := make([]float64, len(g.x))
	for i := range ks {
		ks[i] = g.kernel.Eval(g.x[i], q)
	}
	for j := range means {
		mean := 0.0
		for i, a := range g.alpha[j] {
			mean += ks[i] * a
		}
		means[j] = mean
	}
	forwardSolve(g.l, ks, ks)
	variance = g.kernel.Eval(q, q)
	for _, vi := range ks {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return variance
}

// BlockSize is the number of queries PredictBlock carries through one pass
// over the Cholesky factor.
const BlockSize = 4

// PredictBlock predicts 1 to BlockSize queries together from kernel values
// its caller supplies: scratch[i][c] must hold k(xᵢ, qs[c]), evaluated as
// Eval(xᵢ, qs[c]), for every training input xᵢ. It writes objective j's
// posterior mean at qs[c] into means[c][j], for every j below len(means[c]),
// which must be the same for every c, and the shared posterior variance into
// variances[c]. Each value is bitwise the one PredictMulti(qs[c], means[c])
// gives: every query keeps its own accumulators, summed in PredictMulti's
// order. What the block buys is one forward solve that walks L once for all
// the queries, so their dependency chains overlap instead of running one
// after another. PredictBlock evaluates the kernel only for k(q, q); it
// overwrites scratch and allocates nothing.
func (g *GP) PredictBlock(qs, means [][]float64, variances []float64, scratch [][BlockSize]float64) {
	if len(qs) == 0 || len(qs) > BlockSize {
		panic(fmt.Sprintf("gp: block of %d queries, want 1 to %d", len(qs), BlockSize))
	}
	ks := scratch[:len(g.x)] // ks[i][c] = k(xᵢ, q[c]), then L⁻¹ of it
	// A partial block repeats its last query and drops the repeats' results.
	last := len(qs) - 1
	var q [BlockSize][]float64
	for c := range q {
		q[c] = qs[min(c, last)]
	}
	if last < BlockSize-1 {
		for i := range ks {
			for c := last + 1; c < BlockSize; c++ {
				ks[i][c] = ks[i][last]
			}
		}
	}
	for j := range means[0] {
		m0, m1, m2, m3 := 0.0, 0.0, 0.0, 0.0
		alpha := g.alpha[j]
		for i, k := range ks[:len(alpha)] {
			a := alpha[i]
			m0 += k[0] * a
			m1 += k[1] * a
			m2 += k[2] * a
			m3 += k[3] * a
		}
		m := [BlockSize]float64{m0, m1, m2, m3}
		for c := range qs {
			means[c][j] = m[c]
		}
	}
	for i, li := range g.l {
		y := &ks[i]
		s0, s1, s2, s3 := y[0], y[1], y[2], y[3]
		prev := ks[:i]
		for j, lij := range li[:len(prev)] {
			yj := &prev[j]
			s0 -= lij * yj[0]
			s1 -= lij * yj[1]
			s2 -= lij * yj[2]
			s3 -= lij * yj[3]
		}
		d := li[i]
		y[0], y[1], y[2], y[3] = s0/d, s1/d, s2/d, s3/d
	}
	v0, v1, v2, v3 := g.kernel.Eval(q[0], q[0]), g.kernel.Eval(q[1], q[1]), g.kernel.Eval(q[2], q[2]), g.kernel.Eval(q[3], q[3])
	for _, y := range ks {
		v0 -= y[0] * y[0]
		v1 -= y[1] * y[1]
		v2 -= y[2] * y[2]
		v3 -= y[3] * y[3]
	}
	v := [BlockSize]float64{v0, v1, v2, v3}
	for c := range qs {
		variances[c] = v[c]
		if v[c] < 0 {
			variances[c] = 0
		}
	}
}

// Cholesky returns the lower-triangular factor L with A = L·Lᵀ, or an error
// if A is not positive definite.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for p := 0; p < j; p++ {
				sum -= l[i][p] * l[j][p]
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("gp: pivot %d is %g", i, sum)
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// SolveCholesky solves (L·Lᵀ)·x = b given the Cholesky factor L.
func SolveCholesky(l [][]float64, b []float64) []float64 {
	y := make([]float64, len(b))
	forwardSolve(l, b, y)
	return backSolve(l, y)
}

// forwardSolve writes the solution of L·y = b into y, which may alias b.
func forwardSolve(l [][]float64, b, y []float64) {
	for i := range b {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l[i][j] * y[j]
		}
		y[i] = s / l[i][i]
	}
}

func backSolve(l [][]float64, y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l[j][i] * x[j]
		}
		x[i] = s / l[i][i]
	}
	return x
}
