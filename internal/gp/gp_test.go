package gp

import (
	"fmt"
	"math"
	"testing"

	"autopilot/internal/tensor"
)

func TestSEKernelProperties(t *testing.T) {
	k := SE{Variance: 2, LengthScale: 1}
	a, b := []float64{0, 0}, []float64{1, 1}
	if got := k.Eval(a, a); math.Abs(got-2) > 1e-12 {
		t.Fatalf("k(a,a) = %g, want variance 2", got)
	}
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Fatal("kernel must be symmetric")
	}
	far := []float64{100, 100}
	if k.Eval(a, far) > 1e-10 {
		t.Fatal("kernel must vanish at long range")
	}
	if k.Eval(a, b) >= k.Eval(a, a) {
		t.Fatal("off-diagonal must be below the diagonal")
	}
}

func TestSEKernelDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SE{Variance: 1, LengthScale: 1}.Eval([]float64{1}, []float64{1, 2})
}

func TestCholeskyKnownMatrix(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, math.Sqrt(2)}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("L[%d][%d] = %g, want %g", i, j, l[i][j], want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	if _, err := Cholesky([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

// TestCholeskyReconstruction checks the factor against its definition on
// random SPD matrices of every size up to 12: L is lower triangular with a
// positive diagonal and L·Lᵀ reconstructs A.
func TestCholeskyReconstruction(t *testing.T) {
	g := tensor.NewRNG(1)
	for n := 1; n <= 12; n++ {
		// random SPD: A = B·Bᵀ + n·I
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, n)
			for j := range b[i] {
				b[i][j] = g.NormFloat64()
			}
		}
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				for p := 0; p < n; p++ {
					a[i][j] += b[i][p] * b[j][p]
				}
			}
			a[i][i] += float64(n)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if l[i][i] <= 0 {
				t.Fatalf("n=%d: L[%d][%d] = %g, want > 0", n, i, i, l[i][i])
			}
			for j := 0; j < n; j++ {
				if j > i && l[i][j] != 0 {
					t.Fatalf("n=%d: L[%d][%d] = %g above the diagonal", n, i, j, l[i][j])
				}
				rec := 0.0
				for p := 0; p < n; p++ {
					rec += l[i][p] * l[j][p]
				}
				if math.Abs(rec-a[i][j]) > 1e-9 {
					t.Fatalf("n=%d: LLᵀ[%d][%d] = %g, want %g", n, i, j, rec, a[i][j])
				}
			}
		}
	}
}

func TestSolveCholesky(t *testing.T) {
	a := [][]float64{{4, 2}, {2, 3}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveCholesky(l, []float64{10, 8})
	// verify A·x = b
	if got := 4*x[0] + 2*x[1]; math.Abs(got-10) > 1e-10 {
		t.Fatalf("A·x row0 = %g", got)
	}
	if got := 2*x[0] + 3*x[1]; math.Abs(got-8) > 1e-10 {
		t.Fatalf("A·x row1 = %g", got)
	}
}

func trainGP(t *testing.T) (*GP, [][]float64, []float64) {
	t.Helper()
	var x [][]float64
	var y []float64
	for i := 0; i <= 10; i++ {
		xi := float64(i) / 10 * 2 * math.Pi
		x = append(x, []float64{xi})
		y = append(y, math.Sin(xi))
	}
	g, err := Fit(x, y, SE{Variance: 1, LengthScale: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	return g, x, y
}

func TestGPInterpolatesTrainingPoints(t *testing.T) {
	g, x, y := trainGP(t)
	for i := range x {
		m, v := g.Predict(x[i])
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("mean at train point %v = %g, want %g", x[i], m, y[i])
		}
		if v > 1e-4 {
			t.Fatalf("variance at train point = %g, want ~0", v)
		}
	}
}

func TestGPGeneralizesBetweenPoints(t *testing.T) {
	g, _, _ := trainGP(t)
	for _, xq := range []float64{0.55, 1.7, 3.33, 5.01} {
		m, _ := g.Predict([]float64{xq})
		if math.Abs(m-math.Sin(xq)) > 0.05 {
			t.Fatalf("mean at %g = %g, want ~%g", xq, m, math.Sin(xq))
		}
	}
}

func TestGPVarianceGrowsAwayFromData(t *testing.T) {
	g, _, _ := trainGP(t)
	_, nearVar := g.Predict([]float64{1.0})
	_, farVar := g.Predict([]float64{20.0})
	if farVar <= nearVar {
		t.Fatalf("far variance %g <= near variance %g", farVar, nearVar)
	}
	if farVar > 1.0+1e-9 {
		t.Fatalf("far variance %g exceeds prior variance", farVar)
	}
}

func TestFitErrors(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	if _, err := Fit(nil, nil, k, 1e-6); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, k, 1e-6); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, k, 0); err == nil {
		t.Fatal("expected error for zero noise")
	}
}

func TestFitDuplicatePointsStableWithNoise(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{1}, {1}, {2}}
	y := []float64{0.9, 1.1, 2}
	g, err := Fit(x, y, k, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := g.Predict([]float64{1})
	if math.Abs(m-1.0) > 0.1 {
		t.Fatalf("duplicate-point mean = %g, want ~1.0", m)
	}
}

func TestGPCopiesTrainingInputs(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	g, err := Fit(x, y, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := g.Predict([]float64{1})
	x[0][0] = 100 // mutate the caller's slice
	after, _ := g.Predict([]float64{1})
	if before != after {
		t.Fatal("GP must defensively copy training inputs")
	}
}

// TestFitMultiMatchesPerObjectiveFit pins the shared factorization: each
// objective's posterior mean, and the variance they share, are bitwise what
// a GP fit to that objective alone predicts. It covers a well-conditioned fit
// and one that only the jitter schedule rescues, built as in
// TestFitJitterRescuesNearSingularCovariance.
func TestFitMultiMatchesPerObjectiveFit(t *testing.T) {
	g := tensor.NewRNG(4)
	k := SE{Variance: 1, LengthScale: 0.35}
	var wellX [][]float64
	for i := 0; i < 24; i++ {
		wellX = append(wellX, []float64{g.Float64(), g.Float64(), g.Float64()})
	}
	cases := []struct {
		name   string
		x      [][]float64
		noise  float64
		jitter bool
	}{
		{"well-conditioned", wellX, 1e-6 + 1e-9, false},
		{"jitter", [][]float64{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}}, 1e-18, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.x)
			raw := make([][]float64, n)
			for i := range raw {
				raw[i] = make([]float64, n)
				for j := range raw[i] {
					raw[i][j] = k.Eval(c.x[i], c.x[j])
				}
				raw[i][i] += c.noise
			}
			if _, err := Cholesky(raw); (err != nil) != c.jitter {
				t.Fatalf("raw covariance factorization error = %v; jitter path expected %v", err, c.jitter)
			}
			ys := make([][]float64, 3)
			for j := range ys {
				ys[j] = make([]float64, n)
				for i := range ys[j] {
					ys[j][i] = g.NormFloat64()
				}
			}
			multi, err := FitMulti(c.x, ys, k, c.noise)
			if err != nil {
				t.Fatal(err)
			}
			singles := make([]*GP, len(ys))
			for j, y := range ys {
				if singles[j], err = Fit(c.x, y, k, c.noise); err != nil {
					t.Fatal(err)
				}
			}
			queries := append([][]float64{}, c.x...)
			for i := 0; i < 16; i++ {
				queries = append(queries, []float64{g.Float64(), g.Float64(), g.Float64()})
			}
			means := make([]float64, len(ys))
			for qi, q := range queries {
				v := multi.PredictMulti(q, means)
				for j, single := range singles {
					m, sv := single.Predict(q)
					if math.Float64bits(m) != math.Float64bits(means[j]) {
						t.Fatalf("query %d objective %d: shared mean %v, per-objective %v", qi, j, means[j], m)
					}
					if math.Float64bits(sv) != math.Float64bits(v) {
						t.Fatalf("query %d objective %d: shared variance %v, per-objective %v", qi, j, v, sv)
					}
				}
				if m, _ := multi.Predict(q); math.Float64bits(m) != math.Float64bits(means[0]) {
					t.Fatalf("query %d: Predict mean %v, want objective 0's %v", qi, m, means[0])
				}
			}
		})
	}
}

func TestFitMultiErrors(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	x := [][]float64{{0}, {1}}
	if _, err := FitMulti(x, [][]float64{{0, 1}, {0}}, k, 1e-6); err == nil {
		t.Fatal("expected error for a short second target vector")
	}
	if _, err := FitMulti(x, [][]float64{{0, 1}, {0, math.NaN()}}, k, 1e-6); err == nil {
		t.Fatal("expected error for a non-finite second target vector")
	}
}

// TestPredictBlockMatchesPredictMulti pins the block predictor to the
// single-query reference: every mean and variance is bitwise what
// PredictMulti gives, for blocks filled with 1 to BlockSize queries and a
// trailing partial block, at training sizes from 1 to the default budget's
// 96, on a fit that only the jitter schedule rescues, and on one whose
// variance at a training input rounds below zero and is clamped. The test
// fills each block's kernel values, as a caller does, only for the block's
// queries; the scratch starts as NaN and is shared by every call, so a
// stale entry would show.
func TestPredictBlockMatchesPredictMulti(t *testing.T) {
	g := tensor.NewRNG(11)
	k := SE{Variance: 1, LengthScale: 0.35}
	random := func(n int) [][]float64 {
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		return x
	}
	type fit struct {
		name          string
		x             [][]float64
		noise         float64
		jitter, clamp bool
	}
	var fits []fit
	for _, n := range []int{1, 2, 5, 47, 96} {
		fits = append(fits, fit{fmt.Sprintf("n=%d", n), random(n), 1e-6 + 1e-9, false, false})
	}
	fits = append(fits,
		fit{"jitter", [][]float64{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}}, 1e-18, true, false},
		fit{"clamp", [][]float64{{0.25, 0.75, 0.5}, {0.5, 0.25, 0.25}, {0, 0, 0}}, 1e-18, false, true})
	for _, c := range fits {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.x)
			if c.jitter {
				raw := make([][]float64, n)
				for i := range raw {
					raw[i] = make([]float64, n)
					for j := range raw[i] {
						raw[i][j] = k.Eval(c.x[i], c.x[j])
					}
					raw[i][i] += c.noise
				}
				if _, err := Cholesky(raw); err == nil {
					t.Fatal("raw covariance factorizes; the jitter path is not exercised")
				}
			}
			ys := make([][]float64, 3)
			for j := range ys {
				ys[j] = make([]float64, n)
				for i := range ys[j] {
					ys[j][i] = g.NormFloat64()
				}
			}
			model, err := FitMulti(c.x, ys, k, c.noise)
			if err != nil {
				t.Fatal(err)
			}
			// 11 queries: the training inputs' first few, then fresh points,
			// so a block of 2, 3 or 4 leaves a partial block at the end.
			queries := append(append([][]float64{}, c.x[:min(n, 3)]...), random(11-min(n, 3))...)
			scratch := make([][BlockSize]float64, n)
			for i := range scratch {
				for j := range scratch[i] {
					scratch[i][j] = math.NaN()
				}
			}
			clamped := 0
			for fill := 1; fill <= BlockSize; fill++ {
				for start := 0; start < len(queries); start += fill {
					qs := queries[start:min(start+fill, len(queries))]
					means := make([][]float64, len(qs))
					for q := range means {
						means[q] = make([]float64, len(ys))
					}
					variances := make([]float64, len(qs))
					for i, xi := range c.x {
						for q, x := range qs {
							scratch[i][q] = k.Eval(xi, x)
						}
					}
					model.PredictBlock(qs, means, variances, scratch)
					want := make([]float64, len(ys))
					for q, x := range qs {
						v := model.PredictMulti(x, want)
						if v == 0 {
							clamped++
						}
						if math.Float64bits(variances[q]) != math.Float64bits(v) {
							t.Fatalf("fill %d, query %d: block variance %v, PredictMulti %v", fill, start+q, variances[q], v)
						}
						for j := range want {
							if math.Float64bits(means[q][j]) != math.Float64bits(want[j]) {
								t.Fatalf("fill %d, query %d, objective %d: block mean %v, PredictMulti %v", fill, start+q, j, means[q][j], want[j])
							}
						}
					}
				}
			}
			if c.clamp && clamped == 0 {
				t.Fatal("no variance reached the clamp at zero; the clamp path is not exercised")
			}
		})
	}
}

// randomTargets returns m vectors of n standard-normal targets.
func randomTargets(g *tensor.RNG, m, n int) [][]float64 {
	ys := make([][]float64, m)
	for j := range ys {
		ys[j] = make([]float64, n)
		for i := range ys[j] {
			ys[j][i] = g.NormFloat64()
		}
	}
	return ys
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAppendMatchesFitMulti pins the growing factor: a posterior fitted to
// one input and extended by Append, one input at a time up to the default
// budget's 96, has after every step the factor rows FitMulti computes for
// the same inputs, bit for bit, and SetTargets then solves the weights
// FitMulti solves, bit for bit. New targets are drawn at every step, as the
// optimizer standardizes its objectives again.
func TestAppendMatchesFitMulti(t *testing.T) {
	g := tensor.NewRNG(17)
	k := SE{Variance: 1, LengthScale: 0.35}
	const noise = 1e-6 + 1e-9
	x := make([][]float64, 96)
	for i := range x {
		x[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
	}
	grown, err := FitMulti(x[:1], randomTargets(g, 3, 1), k, noise)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(x); n++ {
		if n > 1 && !grown.Append(x[n-1]) {
			t.Fatalf("n=%d: Append refused a well-conditioned input", n)
		}
		ys := randomTargets(g, 3, n)
		if err := grown.SetTargets(ys); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := FitMulti(x[:n], ys, k, noise)
		if err != nil {
			t.Fatal(err)
		}
		if want.jittered {
			t.Fatalf("n=%d: the reference fit needed jitter; the append path is not exercised", n)
		}
		if grown.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, grown.Len())
		}
		for i := range want.l {
			if !sameBits(grown.l[i][:i+1], want.l[i][:i+1]) {
				t.Fatalf("n=%d: factor row %d is %v, FitMulti's %v", n, i, grown.l[i][:i+1], want.l[i][:i+1])
			}
			if !sameBits(grown.x[i], want.x[i]) {
				t.Fatalf("n=%d: input %d is %v, FitMulti's %v", n, i, grown.x[i], want.x[i])
			}
		}
		for j := range want.alpha {
			if !sameBits(grown.alpha[j], want.alpha[j]) {
				t.Fatalf("n=%d: objective %d's weights differ from FitMulti's", n, j)
			}
		}
	}
}

// TestAppendRefuses pins the two cases in which Append leaves the posterior
// unchanged for a refit: a fit that needed the jitter schedule, and an
// input whose pivot is not positive (a duplicate input at a noise far below
// float64 resolution). Each case fails rather than skips if it does not
// reach its path, and FitMulti then fits the extended inputs with jitter.
func TestAppendRefuses(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	const noise = 1e-18
	dup := []float64{1, 0, 0}
	cases := []struct {
		name     string
		x        [][]float64
		jittered bool
	}{
		{"jittered fit", [][]float64{dup, dup, dup, dup, dup}, true},
		{"failing pivot", [][]float64{{0, 0, 0}, dup}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ys := randomTargets(tensor.NewRNG(3), 2, len(c.x))
			g, err := FitMulti(c.x, ys, k, noise)
			if err != nil {
				t.Fatal(err)
			}
			if g.jittered != c.jittered {
				t.Fatalf("fit jittered = %v, want %v; the refusal path is not exercised", g.jittered, c.jittered)
			}
			rows := make([][]float64, len(g.l))
			for i, r := range g.l {
				rows[i] = append([]float64(nil), r...)
			}
			alpha := g.alpha
			if g.Append(dup) {
				t.Fatal("Append accepted the input")
			}
			if g.Len() != len(c.x) || len(g.l) != len(rows) || &g.alpha[0][0] != &alpha[0][0] {
				t.Fatal("a refused Append changed the posterior's size or weights")
			}
			for i := range rows {
				if !sameBits(g.l[i], rows[i]) {
					t.Fatalf("a refused Append changed factor row %d", i)
				}
			}
			grown := append(append([][]float64{}, c.x...), dup)
			refit, err := FitMulti(grown, randomTargets(tensor.NewRNG(4), 2, len(grown)), k, noise)
			if err != nil {
				t.Fatalf("refit after the refusal: %v", err)
			}
			if !refit.jittered {
				t.Fatal("the refit factored without jitter, so Append need not have refused")
			}
		})
	}
}

// TestSetTargetsErrors checks that SetTargets keeps FitMulti's checks on
// the targets and leaves the weights as they were when one fails.
func TestSetTargetsErrors(t *testing.T) {
	k := SE{Variance: 1, LengthScale: 1}
	g, err := FitMulti([][]float64{{0}, {1}}, [][]float64{{0, 1}}, k, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	alpha := g.alpha
	for _, ys := range [][][]float64{{{0, 1}, {0}}, {{0, 1}, {0, math.Inf(1)}}, {{math.NaN(), 0}}} {
		if err := g.SetTargets(ys); err == nil {
			t.Fatalf("SetTargets(%v) accepted bad targets", ys)
		}
		if len(g.alpha) != 1 || &g.alpha[0] != &alpha[0] {
			t.Fatalf("a failed SetTargets(%v) changed the weights", ys)
		}
	}
}
