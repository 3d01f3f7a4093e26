package pareto

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"autopilot/internal/tensor"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // equal: no strict improvement
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestWeaklyDominates(t *testing.T) {
	if !WeaklyDominates([]float64{1, 1}, []float64{1, 1}) {
		t.Error("equal points weakly dominate each other")
	}
	if WeaklyDominates([]float64{2, 1}, []float64{1, 1}) {
		t.Error("worse point must not weakly dominate")
	}
}

func TestNonDominatedSimpleFront(t *testing.T) {
	pts := [][]float64{
		{1, 5}, // front
		{3, 3}, // front
		{5, 1}, // front
		{4, 4}, // dominated by (3,3)
		{6, 6}, // dominated
	}
	idx := NonDominated(pts)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 2 {
		t.Fatalf("NonDominated = %v", idx)
	}
}

func TestNonDominatedAntisymmetry(t *testing.T) {
	g := tensor.NewRNG(1)
	f := func(seed uint8) bool {
		_ = seed
		n := 2 + g.Intn(10)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		// no point on the returned front may dominate another front point
		idx := NonDominated(pts)
		for _, i := range idx {
			for _, j := range idx {
				if i != j && Dominates(pts[i], pts[j]) {
					return false
				}
			}
		}
		// every excluded point must be dominated by someone
		inFront := map[int]bool{}
		for _, i := range idx {
			inFront[i] = true
		}
		for i := range pts {
			if inFront[i] {
				continue
			}
			dominated := false
			for j := range pts {
				if i != j && Dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHypervolume1D(t *testing.T) {
	hv := Hypervolume([][]float64{{2}, {5}}, []float64{10})
	if math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv = %g, want 8", hv)
	}
}

func TestHypervolume2DKnown(t *testing.T) {
	// front (1,3), (2,2), (3,1), ref (4,4):
	// boxes: (4-1)(4-3)=3 plus (4-2)(3-2)=2 plus (4-3)(2-1)=1 → 6
	pts := [][]float64{{1, 3}, {2, 2}, {3, 1}}
	hv := Hypervolume(pts, []float64{4, 4})
	if math.Abs(hv-6) > 1e-12 {
		t.Fatalf("hv = %g, want 6", hv)
	}
}

func TestHypervolume3DKnown(t *testing.T) {
	// two non-overlapping unit cubes at (0,0,0) and ref (2,2,2):
	// single point (1,1,1) → volume 1; point (0,0,0) → volume 8
	if hv := Hypervolume([][]float64{{1, 1, 1}}, []float64{2, 2, 2}); math.Abs(hv-1) > 1e-12 {
		t.Fatalf("hv = %g, want 1", hv)
	}
	if hv := Hypervolume([][]float64{{0, 0, 0}}, []float64{2, 2, 2}); math.Abs(hv-8) > 1e-12 {
		t.Fatalf("hv = %g, want 8", hv)
	}
	// overlapping pair: (0,1,1) and (1,0,1), ref (2,2,2)
	// inclusive volumes 2·1·1=2 each, intersection (1,1,1)-box = 1·1·1=1 → union 3
	hv := Hypervolume([][]float64{{0, 1, 1}, {1, 0, 1}}, []float64{2, 2, 2})
	if math.Abs(hv-3) > 1e-12 {
		t.Fatalf("hv = %g, want 3", hv)
	}
}

func TestHypervolumeDominatedPointNoEffect(t *testing.T) {
	pts := [][]float64{{1, 3}, {3, 1}}
	ref := []float64{4, 4}
	base := Hypervolume(pts, ref)
	with := Hypervolume(append(pts, []float64{3.5, 3.5}), ref)
	if math.Abs(base-with) > 1e-12 {
		t.Fatalf("dominated point changed hv: %g vs %g", base, with)
	}
}

func TestHypervolumePointOutsideRefIgnored(t *testing.T) {
	pts := [][]float64{{1, 1}}
	ref := []float64{2, 2}
	base := Hypervolume(pts, ref)
	with := Hypervolume(append(pts, []float64{5, 0.5}), ref)
	if with < base {
		t.Fatalf("hv decreased: %g -> %g", base, with)
	}
}

func TestHypervolumeMonotoneUnderAddition(t *testing.T) {
	g := tensor.NewRNG(2)
	ref := []float64{1, 1, 1}
	f := func(seed uint8) bool {
		_ = seed
		n := 1 + g.Intn(8)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		base := Hypervolume(pts, ref)
		extra := []float64{g.Float64(), g.Float64(), g.Float64()}
		with := Hypervolume(append(pts, extra), ref)
		return with >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHypervolumeBoundedByRefBox(t *testing.T) {
	g := tensor.NewRNG(3)
	ref := []float64{1, 1}
	f := func(seed uint8) bool {
		_ = seed
		n := 1 + g.Intn(10)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{g.Float64(), g.Float64()}
		}
		hv := Hypervolume(pts, ref)
		return hv >= 0 && hv <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestContribution(t *testing.T) {
	pts := [][]float64{{1, 3}, {3, 1}}
	ref := []float64{4, 4}
	// (2,2) adds the box [2,3]×[2,3] → 1
	c := Contribution(pts, []float64{2, 2}, ref)
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("contribution = %g, want 1", c)
	}
	// a dominated point contributes nothing
	if c := Contribution(pts, []float64{3.9, 3.9}, ref); math.Abs(c) > 1e-12 {
		t.Fatalf("dominated contribution = %g, want 0", c)
	}
}

func TestContribution3DKnown(t *testing.T) {
	// front (0,1,1), (1,0,1), ref (2,2,2): their boxes cover 2+2-1 = 3 of
	// p=(0,0,1)'s box of volume 4, and 3 of p=(0,0,0)'s box of volume 8
	pts := [][]float64{{0, 1, 1}, {1, 0, 1}}
	ref := []float64{2, 2, 2}
	for _, c := range []struct {
		p    []float64
		want float64
	}{
		{[]float64{0, 0, 1}, 1},
		{[]float64{0, 0, 0}, 5},
		{[]float64{1, 1, 1}, 0},           // dominated
		{[]float64{0, 1, 1}, 0},           // duplicate
		{[]float64{-1, -1, 2}, 0},         // on the ref face
		{[]float64{0.5, 0.5, 1}, 0.25},    // the corner x, y < 1 is uncovered
		{[]float64{1.5, 0.5, 0.5}, 0.375}, // covered above z = 1
	} {
		if got := Contribution(pts, c.p, ref); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Contribution(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestContributionDoesNotMutateInput(t *testing.T) {
	for _, pts := range [][][]float64{{{1, 3}, {3, 1}}, {{1, 3, 2}, {3, 1, 2}}} {
		before := fmt.Sprint(pts)
		p, ref := make([]float64, len(pts[0])), make([]float64, len(pts[0]))
		for i := range p {
			p[i], ref[i] = 2, 4
		}
		Contribution(pts, p, ref)
		if after := fmt.Sprint(pts); after != before {
			t.Fatalf("input changed: %s -> %s", before, after)
		}
	}
}

// TestContributionAllocsConstant pins that a three-objective contribution
// allocates a constant number of times, whatever the front's size, and that
// a query against a prepared Front allocates nothing.
func TestContributionAllocsConstant(t *testing.T) {
	g := tensor.NewRNG(5)
	ref := []float64{1, 1, 1}
	for _, n := range []int{0, 1, 8, 64} {
		front := make([][]float64, n)
		for i := range front {
			front[i] = []float64{g.Float64(), g.Float64(), g.Float64()}
		}
		p := []float64{0.1, 0.1, 0.1}
		if a := testing.AllocsPerRun(20, func() { Contribution(front, p, ref) }); a > 2 {
			t.Errorf("front of %d: %v allocations per call, want <= 2", n, a)
		}
		var prepared Front
		prepared.Prepare(front, ref)
		if a := testing.AllocsPerRun(20, func() { prepared.Contribution(p) }); a != 0 {
			t.Errorf("prepared front of %d: %v allocations per query, want 0", n, a)
		}
	}
}

// TestObjectiveCountPanics pins that the sweep refuses zero and four
// objectives with a message naming the count, and that a prepared Front
// refuses a query of another length.
func TestObjectiveCountPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one containing %q", name, r, want)
			}
		}()
		f()
	}
	for _, d := range []int{0, 4} {
		ref, pts := make([]float64, d), [][]float64{make([]float64, d)}
		want := fmt.Sprintf("%d objectives", d)
		mustPanic("Hypervolume", want, func() { Hypervolume(pts, ref) })
		mustPanic("Contribution", want, func() { Contribution(pts, pts[0], ref) })
		var f Front
		mustPanic("Prepare", want, func() { f.Prepare(pts, ref) })
	}
	var f Front
	for _, d := range []int{2, 3} {
		f.Prepare([][]float64{make([]float64, d)}, []float64{1, 1, 1}[:d])
		q := make([]float64, 5-d)
		want := fmt.Sprintf("point dim %d vs ref dim %d", len(q), d)
		mustPanic("query of a prepared Front", want, func() { f.Contribution(q) })
	}
}

func TestFilterEmpty(t *testing.T) {
	if got := Filter(nil); len(got) != 0 {
		t.Fatalf("Filter(nil) = %v", got)
	}
	if hv := Hypervolume(nil, []float64{1, 1}); hv != 0 {
		t.Fatalf("empty hv = %g", hv)
	}
}
