package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for p, want := range map[float64]float64{5: 15, 30: 20, 40: 20, 50: 35, 90: 50, 100: 50} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	for n, want := range map[int]float64{9: 0, 20: 50, 100: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimeSubtractsOverlapOnce(t *testing.T) {
	span := interval{0, 10}
	// [1,3] and [2,5] overlap (a 2-wide batch): together they cover 4 s, not
	// 5; [9,12] sticks out of the span and counts only inside it.
	children := []interval{{2, 5}, {1, 3}, {7, 8}, {9, 12}}
	if got := unionWithin(children, span.start, span.end); !near(got, 6) {
		t.Errorf("union = %v, want 6", got)
	}
	if got := selfTime(span, children); !near(got, 4) {
		t.Errorf("self time = %v, want 4", got)
	}
	if got := selfTime(interval{3, 3}, children); got != 0 {
		t.Errorf("empty span self time = %v", got)
	}
}

func TestResidual(t *testing.T) {
	if got := residual(10, 2, 3, 4.5); !near(got, 0.5) {
		t.Errorf("residual = %v, want 0.5", got)
	}
	if got := residual(1); got != 1 {
		t.Errorf("residual with no layers = %v", got)
	}
}

func TestSplitPhase2AddsUpToWall(t *testing.T) {
	ivs := []interval{
		{1, 2}, {1.5, 2.5}, // initial batch, two wide
		{3, 3.1}, {4, 4.2}, // model-guided iterations
		{9, 9.5}, {9.2, 9.6}, // probe sweep
	}
	sp := splitPhase2(0, 10, ivs, 2, 2)
	for name, c := range map[string][2]float64{
		"sample": {sp.sample, 1}, "initWall": {sp.initWall, 1.5}, "initGaps": {sp.initGaps, 0},
		"boSelf": {sp.boSelf, 1.4}, "post": {sp.post, 5.2}, "evals": {sp.evals, 2.4},
	} {
		if !near(c[0], c[1]) {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}
	if len(sp.iterGaps) != 2 || !near(sp.iterGaps[0], 0.5) || !near(sp.iterGaps[1], 0.9) {
		t.Errorf("iteration gaps = %v, want [0.5 0.9]", sp.iterGaps)
	}
	if gap := residual(10, sp.evals, sp.boSelf, sp.other()); !near(gap, 0) {
		t.Errorf("attribution leaves %v unexplained", gap)
	}
	if sp := splitPhase2(0, 3, nil, 2, 2); !near(sp.other(), 3) {
		t.Errorf("no evaluations: other = %v, want the whole window", sp.other())
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, decl := range [][]declared{endToEnd, perLayer} {
		for _, d := range decl {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q breaks the grammar", d.name)
			}
			if !metricUnit.MatchString(d.unit) {
				t.Errorf("unit %q of %s breaks the grammar", d.unit, d.name)
			}
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	for _, bad := range []string{"", "m s", "µs", strings.Repeat("s", 17)} {
		if metricUnit.MatchString(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for k := 0; k < 20; k++ {
			s := deriveSeed(seed, k)
			if s <= 0 || s != deriveSeed(seed, k) {
				t.Fatalf("deriveSeed(%d, %d) = %d", seed, k, s)
			}
			seen[s] = true
		}
	}
	if len(seen) < 395 {
		t.Errorf("only %d distinct job seeds out of 400", len(seen))
	}
	for k := 0; k < 6; k++ {
		if got, want := basketSeeds(4, k), int64(1+(4+k)%3); got != want {
			t.Errorf("basketSeeds(4, %d) = %d, want %d", k, got, want)
		}
	}
}
