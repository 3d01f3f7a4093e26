// Package pareto provides multi-objective dominance utilities and exact
// hypervolume computation in one to three objectives: a sort-based
// non-dominated filter, and one slab sweep that computes both hypervolume
// contributions — the quantity the SMS-EGO acquisition function in the
// Bayesian optimizer maximizes — and hypervolumes. All objectives are
// minimized; callers negate objectives they want to maximize (e.g. task
// success rate). Inputs must be finite.
package pareto

import (
	"cmp"
	"fmt"
	"slices"
)

// Dominates reports whether a Pareto-dominates b under minimization:
// a is no worse in every objective and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: dimension mismatch %d vs %d", len(a), len(b)))
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether a is no worse than b in every objective.
func WeaklyDominates(a, b []float64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// NonDominated returns the indices of the non-dominated points, preserving
// input order. Duplicate points are all kept. Coordinates must be finite.
//
// The points are visited in lexicographic order, and each is tested only
// against the non-dominated points kept so far. That suffices: a dominator
// sorts strictly before the point it dominates, and every dominated point
// has a non-dominated dominator.
func NonDominated(points [][]float64) []int {
	if len(points) == 0 {
		return nil
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(points[a], points[b])
	})
	var keep []int
	for _, i := range order {
		dominated := false
		for _, k := range keep {
			if Dominates(points[k], points[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, i)
		}
	}
	slices.Sort(keep)
	return keep
}

// Filter returns the non-dominated subset of points.
func Filter(points [][]float64) [][]float64 {
	idx := NonDominated(points)
	out := make([][]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, points[i])
	}
	return out
}

// Hypervolume returns the volume of objective space dominated by the point
// set and bounded by the reference point, for one to three objectives; it
// panics on any other count. Points with any coordinate at or beyond ref are
// ignored; dominated and repeated points contribute nothing extra.
//
// It is the volume of the box between the set's ideal point and ref, less
// the part of that box the set leaves undominated: the ideal point's
// contribution, by the same sweep that answers Contribution.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var f Front
	f.Prepare(points, ref)
	ideal, box := f.ref, 1.0 // with no point inside ref, both terms are 0
	for _, q := range f.sorted {
		for i := range ideal {
			ideal[i] = min(ideal[i], q[i])
		}
	}
	for i := range ref {
		box *= ref[i] - ideal[i]
	}
	return box - f.Contribution(ideal[:len(ref)])
}

// Contribution returns the increase in hypervolume from adding point p to
// the set — the quantity SMS-EGO maximizes. Like Hypervolume it ignores
// points with any coordinate at or beyond ref, so a p outside the reference
// box contributes 0, as does a p that some point weakly dominates. It
// prepares a Front and queries it once, which allocates twice whatever the
// set's size.
func Contribution(points [][]float64, p []float64, ref []float64) float64 {
	var f Front
	f.Prepare(points, ref)
	return f.Contribution(p)
}

// Front is a point set prepared for many Contribution queries against one
// reference point, as SMS-EGO makes one per screened candidate. Prepare
// copies the points that lie strictly inside the reference box, sorts the
// copy once by the last objective and reserves the sweep's scratch, so a
// query allocates nothing. Prepare reuses a Front's storage. A Front is not
// safe for concurrent use, because a query sweeps over the Front's own
// scratch: goroutines that query one point set each prepare a Front of
// their own, as the Bayesian optimizer's screen keeps one per worker.
//
// The sweep works in three objectives. Prepare pads fewer with coordinate 0
// against reference 1, which scales no volume, and a query is padded the
// same way.
type Front struct {
	dim    int          // the objective count of the last Prepare
	ref    [3]float64   // its reference point, padded
	sorted [][3]float64 // the points strictly inside ref, padded, by last coordinate
	active [][2]float64 // sweep scratch: the staircase, by first coordinate
}

// Prepare readies f for queries against points and ref, which must have one
// to three objectives; it panics on any other count. f keeps neither slice.
func (f *Front) Prepare(points [][]float64, ref []float64) {
	if len(ref) < 1 || len(ref) > 3 {
		panic(fmt.Sprintf("pareto: %d objectives; hypervolume takes 1 to 3", len(ref)))
	}
	f.dim, f.ref = len(ref), [3]float64{1, 1, 1}
	copy(f.ref[:], ref)
	f.sorted = reserve(f.sorted, len(points))
	for _, q := range points {
		if len(q) != len(ref) {
			panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(q), len(ref)))
		}
		var s [3]float64
		copy(s[:], q)
		if s[0] < f.ref[0] && s[1] < f.ref[1] && s[2] < f.ref[2] {
			f.sorted = append(f.sorted, s)
		}
	}
	slices.SortFunc(f.sorted, func(a, b [3]float64) int { return cmp.Compare(a[2], b[2]) })
	f.active = reserve(f.active, len(f.sorted))
}

// reserve returns s emptied, with room for n elements, in at most one
// allocation; slices.Grow makes two under the race detector.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Contribution returns Contribution(points, p, ref) for the points and ref
// of the last Prepare, bit for bit.
//
// It returns the volume of the box between p and ref that no point of the
// set dominates. Each prepared point f is limited to q = max(f, p), the
// part of its box inside p's, and the q are swept in order of their last
// coordinate, which is the prepared order. Between consecutive
// last-coordinate values the covered part of p's 2-D face is the union of
// the active q's boxes, so each slab adds its height times the face area
// left uncovered, read off the staircase of the active q sorted by their
// first coordinate. Every term is non-negative. Points that tie in a
// coordinate may meet the sweep in any order without changing a bit of the
// result, which is why sorting once serves every query.
func (f *Front) Contribution(p []float64) float64 {
	if len(p) != f.dim {
		panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(p), f.dim))
	}
	if len(p) < 3 {
		var padded [3]float64
		copy(padded[:], p)
		p = padded[:]
	}
	ref := &f.ref
	for i := range p {
		if p[i] >= ref[i] {
			return 0
		}
	}
	// Every q is inside the box, as both f and p are; and since z >= p[2]
	// throughout, a point's q enters the sweep once its own f[2] <= z.
	pts, active := f.sorted, f.active[:0]
	vol, z := 0.0, p[2]
	for next := 0; ; {
		for ; next < len(pts) && pts[next][2] <= z; next++ {
			q := [2]float64{max(pts[next][0], p[0]), max(pts[next][1], p[1])}
			active = append(active, q)
			j := len(active) - 1
			for ; j > 0 && active[j-1][0] > q[0]; j-- {
				active[j] = active[j-1]
			}
			active[j] = q
		}
		top := ref[2]
		if next < len(pts) {
			top = pts[next][2]
		}
		// The uncovered face is the region left of and below the staircase.
		area, x, y := 0.0, p[0], ref[1]
		for _, a := range active {
			if a[1] < y {
				area += (a[0] - x) * (y - p[1])
				x, y = a[0], a[1]
			}
		}
		area += (ref[0] - x) * (y - p[1])
		if area == 0 {
			return vol // the face is covered, and stays covered above
		}
		vol += (top - z) * area
		if next == len(pts) {
			return vol
		}
		z = top
	}
}
