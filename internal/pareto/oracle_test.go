package pareto

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"autopilot/internal/tensor"
)

// bruteNonDominated is NonDominated by its definition: the points no other
// point dominates, in input order.
func bruteNonDominated(points [][]float64) []int {
	var keep []int
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	return keep
}

// inclusionExclusion is the hypervolume of the points strictly inside ref,
// summed by inclusion–exclusion over every non-empty subset of them.
func inclusionExclusion(points [][]float64, ref []float64) float64 {
	var in [][]float64
	for _, p := range points {
		if inside(p, ref) {
			in = append(in, p)
		}
	}
	total := 0.0
	corner := make([]float64, len(ref))
	for mask := 1; mask < 1<<len(in); mask++ {
		for i := range corner {
			corner[i] = math.Inf(-1)
		}
		odd := false
		for k, p := range in {
			if mask&(1<<k) != 0 {
				odd = !odd
				for i := range corner {
					corner[i] = max(corner[i], p[i])
				}
			}
		}
		if odd {
			total += inclusive(corner, ref)
		} else {
			total -= inclusive(corner, ref)
		}
	}
	return total
}

// sliceVolume is the hypervolume of the points strictly inside ref by its
// definition, the volume of the union of their boxes [p, ref], computed by
// slicing: between consecutive values of the last coordinate, the union's
// cross-section is the union of the boxes of the points at or below the
// slice, one dimension down, and in one dimension the union is the segment
// from the least point to ref. Points may be longer than ref; only ref's
// coordinates count. It takes O(n^d) time.
func sliceVolume(points [][]float64, ref []float64) float64 {
	var in [][]float64
	for _, p := range points {
		if inside(p, ref) {
			in = append(in, p)
		}
	}
	d := len(ref)
	if d == 1 {
		lo := ref[0]
		for _, p := range in {
			lo = min(lo, p[0])
		}
		return ref[0] - lo
	}
	slices.SortFunc(in, func(a, b []float64) int { return cmp.Compare(a[d-1], b[d-1]) })
	vol := 0.0
	for i, p := range in {
		top := ref[d-1]
		if i+1 < len(in) {
			top = in[i+1][d-1]
		}
		vol += (top - p[d-1]) * sliceVolume(in[:i+1], ref[:d-1])
	}
	return vol
}

// inside reports whether p is strictly inside ref in each of ref's
// coordinates.
func inside(p, ref []float64) bool {
	for i := range ref {
		if p[i] >= ref[i] {
			return false
		}
	}
	return true
}

// inclusive returns the volume of the box between p and ref.
func inclusive(p, ref []float64) float64 {
	v := 1.0
	for i := range ref {
		v *= ref[i] - p[i]
	}
	return v
}

// box is a reference point with the ideal corner of the region test points
// are drawn from; refs holds the unit cube and the two dse reference points.
type box struct{ lo, ref []float64 }

func (b box) volume() float64 { return inclusive(b.lo, b.ref) }

var refs3 = []box{
	{[]float64{0, 0, 0}, []float64{1, 1, 1}},
	{[]float64{-1, 0, 0}, []float64{0, 30, 1}},    // legacy: -success, power W, runtime s
	{[]float64{-1, 0, -12}, []float64{0, 600, 0}}, // vehicle: -success, weight g, -missions
}

// gridPoint draws a point on a coarse grid over the box, so that ties in
// every coordinate are common; level 16 lies on the ref face and 17 beyond.
func gridPoint(g *tensor.RNG, b box, levels int) []float64 {
	p := make([]float64, len(b.ref))
	for i := range p {
		p[i] = b.lo[i] + float64(g.Intn(levels))/16*(b.ref[i]-b.lo[i])
	}
	return p
}

// uniformPoint draws a point uniformly from the box.
func uniformPoint(g *tensor.RNG, b box) []float64 {
	p := make([]float64, len(b.ref))
	for i := range p {
		p[i] = b.lo[i] + g.Float64()*(b.ref[i]-b.lo[i])
	}
	return p
}

// randomSet draws n points: on a coarse grid (ties, duplicates, points on
// and beyond the ref faces) when coarse, else uniformly inside the box.
func randomSet(g *tensor.RNG, b box, n int, coarse bool) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		if coarse {
			pts[i] = gridPoint(g, b, 18)
		} else {
			pts[i] = uniformPoint(g, b)
		}
	}
	return pts
}

// planarSet draws n points on the plane where a point's coordinates, as
// fractions of the box, sum to k/(k+1), on a grid of k+1 steps: no point
// dominates another, and with few steps points repeat and their limited
// copies coincide.
func planarSet(g *tensor.RNG, b box, n, k int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, len(b.ref))
		left := k
		for j := range p {
			lvl := left
			if j < len(p)-1 {
				lvl = g.Intn(left + 1)
			}
			left -= lvl
			p[j] = b.lo[j] + float64(lvl)/float64(k+1)*(b.ref[j]-b.lo[j])
		}
		pts[i] = p
	}
	return pts
}

func unitBox(d int) box {
	b := box{make([]float64, d), make([]float64, d)}
	for i := range b.ref {
		b.ref[i] = 1
	}
	return b
}

func TestNonDominatedMatchesDefinition(t *testing.T) {
	g := tensor.NewRNG(7)
	for trial := 0; trial < 400; trial++ {
		d := 1 + trial%4
		n := g.Intn(41)
		if trial < 8 {
			n = trial % 2 // zero and one point in every dimension
		}
		b := unitBox(d)
		var pts [][]float64
		if trial%3 == 0 {
			pts = randomSet(g, b, n, false)
		} else {
			pts = make([][]float64, n)
			for i := range pts {
				pts[i] = gridPoint(g, b, 4) // few levels: many ties and duplicates
			}
		}
		if got, want := NonDominated(pts), bruteNonDominated(pts); !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, n=%d): NonDominated = %v, definition = %v\npoints %v", trial, d, n, got, want, pts)
		}
	}
}

func TestHypervolumeMatchesInclusionExclusion(t *testing.T) {
	g := tensor.NewRNG(8)
	for trial := 0; trial < 400; trial++ {
		d := 1 + trial%3
		b := unitBox(d)
		if d == 3 {
			b = refs3[trial%len(refs3)]
		}
		pts := randomSet(g, b, g.Intn(9), trial%2 == 0)
		got, want := Hypervolume(pts, b.ref), inclusionExclusion(pts, b.ref)
		if math.Abs(got-want) > 1e-9*b.volume() {
			t.Fatalf("trial %d (d=%d): Hypervolume = %v, inclusion-exclusion = %v\npoints %v", trial, d, got, want, pts)
		}
	}
}

// TestHypervolumeMatchesSlicing checks the sweep's hypervolume against the
// sliced volume on fronts of up to 40 points in one to three objectives:
// on a coarse grid (ties, duplicates, and points on and beyond the ref
// faces), uniform, and planar, each with some points repeated.
func TestHypervolumeMatchesSlicing(t *testing.T) {
	g := tensor.NewRNG(10)
	for trial := 0; trial < 600; trial++ {
		d := 1 + trial%3
		b := unitBox(d)
		if d == 3 {
			b = refs3[trial/3%len(refs3)]
		}
		n := g.Intn(41)
		var pts [][]float64
		switch trial / 3 % 4 {
		case 0, 1:
			pts = randomSet(g, b, n, trial/3%4 == 0)
		default:
			pts = planarSet(g, b, n, 2+g.Intn(8))
		}
		for k := 0; k < len(pts)/4; k++ {
			pts[g.Intn(len(pts))] = slices.Clone(pts[g.Intn(len(pts))])
		}
		got, want := Hypervolume(pts, b.ref), sliceVolume(pts, b.ref)
		if math.Abs(got-want) > 1e-9*b.volume() {
			t.Fatalf("trial %d (d=%d, n=%d): Hypervolume = %v, sliced = %v\npoints %v", trial, d, n, got, want, pts)
		}
	}
}

// TestHypervolumeRepeatsAndPlanesFast pins two inputs whose WFG recursion
// doubled with every point, to the sliced volume within a deadline: 64
// copies of one point, and a 22-point front on a plane in the legacy
// (0, 30, 1) box. Limited to the plane's one point with a low last
// objective, the other 21, which lie on a line, all coincide.
func TestHypervolumeRepeatsAndPlanesFast(t *testing.T) {
	copies := make([][]float64, 64)
	for i := range copies {
		copies[i] = []float64{0.25, 0.5, 0.75}
	}
	legacy := refs3[1]
	at := func(lvl ...int) []float64 { // a point on a grid of 64 steps
		p := make([]float64, 3)
		for i := range p {
			p[i] = legacy.lo[i] + float64(lvl[i])/64*(legacy.ref[i]-legacy.lo[i])
		}
		return p
	}
	planar := [][]float64{at(32, 32, 4)} // level sum 68, as on the line
	for i := 0; i < 21; i++ {
		planar = append(planar, at(i, 20-i, 48))
	}
	for _, c := range []struct {
		name string
		pts  [][]float64
		b    box
	}{{"64 copies", copies, unitBox(3)}, {"22-point plane", planar, legacy}} {
		want := sliceVolume(c.pts, c.b.ref)
		done := make(chan float64, 1)
		go func() { done <- Hypervolume(c.pts, c.b.ref) }()
		select {
		case got := <-done:
			if math.Abs(got-want) > 1e-9*c.b.volume() {
				t.Errorf("%s: Hypervolume = %v, sliced = %v", c.name, got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: Hypervolume took over 2 s", c.name)
		}
	}
}

// checkContribution asserts a three-objective contribution agrees with the
// sliced hypervolume difference within 1e-9 of the box volume, is finite and
// non-negative, and is exactly 0 for a p outside the box or weakly
// dominated by a point of the set. It also asserts that a Front prepared
// from the set in reverse order, so that tied points meet the sweep in
// another order, answers with the same bits.
func checkContribution(t *testing.T, front [][]float64, p []float64, b box) {
	t.Helper()
	got := Contribution(front, p, b.ref)
	var prepared Front
	reversed := slices.Clone(front)
	slices.Reverse(reversed)
	prepared.Prepare(reversed, b.ref)
	if pg := prepared.Contribution(p); math.Float64bits(pg) != math.Float64bits(got) {
		t.Fatalf("prepared Contribution = %v, one-shot = %v\nfront %v\np %v ref %v", pg, got, front, p, b.ref)
	}
	want := sliceVolume(append(slices.Clip(front), p), b.ref) - sliceVolume(front, b.ref)
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
		t.Fatalf("Contribution = %v, want finite and >= 0\nfront %v\np %v ref %v", got, front, p, b.ref)
	}
	if math.Abs(got-want) > 1e-9*b.volume() {
		t.Fatalf("Contribution = %v, sliced volume difference = %v\nfront %v\np %v ref %v", got, want, front, p, b.ref)
	}
	zero := !inside(p, b.ref)
	for _, f := range front {
		zero = zero || WeaklyDominates(f, p)
	}
	if zero && got != 0 {
		t.Fatalf("Contribution = %v, want exactly 0\nfront %v\np %v ref %v", got, front, p, b.ref)
	}
}

func TestContributionMatchesHypervolumeDifference(t *testing.T) {
	g := tensor.NewRNG(9)
	for trial := 0; trial < 1500; trial++ {
		b := refs3[trial%len(refs3)]
		coarse := trial%2 == 0
		front := randomSet(g, b, g.Intn(25), coarse) // includes the empty front
		var p []float64
		switch {
		case trial%5 == 0 && len(front) > 0: // a duplicate of a front point
			p = slices.Clone(front[g.Intn(len(front))])
		case trial%5 == 1 && len(front) > 0: // weakly dominated by a front point
			p = slices.Clone(front[g.Intn(len(front))])
			k := g.Intn(3)
			p[k] += 0.5 * (b.ref[k] - b.lo[k])
		case coarse:
			p = gridPoint(g, b, 18)
		default:
			p = uniformPoint(g, b)
		}
		checkContribution(t, front, p, b)
	}
}

// TestFrontMatchesContribution pins a prepared Front to the one-shot
// Contribution bit for bit, with one Front reused across fronts of every
// size and every query. The fronts hold ties in the last objective,
// duplicate points, and coordinates on and beyond the reference faces; the
// queries include points outside the box, front points, weakly dominated
// points and points on the front's grid. The one-shot side sees the front
// shuffled, so tied points meet its sweep in another order.
func TestFrontMatchesContribution(t *testing.T) {
	g := tensor.NewRNG(12)
	var prepared Front
	for trial := 0; trial < 400; trial++ {
		b := refs3[trial%len(refs3)]
		front := randomSet(g, b, g.Intn(30), true)
		if len(front) > 0 {
			for range 4 { // ties in the last objective, and duplicates
				tie := gridPoint(g, b, 16)
				tie[2] = front[g.Intn(len(front))][2]
				front = append(front, tie, slices.Clone(front[g.Intn(len(front))]))
			}
		}
		shuffled := slices.Clone(front)
		for i, j := range g.Perm(len(shuffled)) {
			shuffled[i] = front[j]
		}
		prepared.Prepare(front, b.ref)
		for q := 0; q < 24; q++ {
			var p []float64
			switch {
			case q%4 == 0 && len(front) > 0: // a front point, or one it weakly dominates
				p = slices.Clone(front[g.Intn(len(front))])
				k := g.Intn(3)
				p[k] += float64(g.Intn(2)) / 16 * (b.ref[k] - b.lo[k])
			case q%4 == 1: // on the grid, so on or beyond a face for levels 16 and 17
				p = gridPoint(g, b, 18)
			default:
				p = uniformPoint(g, b)
			}
			got, want := prepared.Contribution(p), Contribution(shuffled, p, b.ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: prepared Contribution = %v, one-shot = %v\nfront %v\np %v ref %v", trial, got, want, front, p, b.ref)
			}
		}
	}
}

// FuzzContribution decodes its input into a box, a candidate p and a front
// of up to 32 points on a coarse grid (level%18 of 16 steps: ties,
// duplicates, and points on and beyond the ref faces) and checks the sweep
// against the sliced volume difference.
func FuzzContribution(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		b := refs3[int(data[0])%len(refs3)]
		data = data[1:]
		pts := make([][]float64, 0, 33)
		for len(data) >= 3 && len(pts) < cap(pts) {
			q := make([]float64, 3)
			for i := range q {
				q[i] = b.lo[i] + float64(data[i]%18)/16*(b.ref[i]-b.lo[i])
			}
			pts = append(pts, q)
			data = data[3:]
		}
		checkContribution(t, pts[1:], pts[0], b)
	})
}
