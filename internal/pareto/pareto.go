// Package pareto provides multi-objective dominance utilities and exact
// hypervolume computation: a sort-based non-dominated filter, the WFG
// hypervolume algorithm, and hypervolume contributions — the quantity the
// SMS-EGO acquisition function in the Bayesian optimizer maximizes — by a
// slab sweep for three objectives. All objectives are minimized; callers
// negate objectives they want to maximize (e.g. task success rate). Inputs
// must be finite.
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
// set and bounded by the reference point. Points with any coordinate at or
// beyond ref are ignored; fully dominated points contribute nothing extra.
func Hypervolume(points [][]float64, ref []float64) float64 {
	var clipped [][]float64
	for _, p := range points {
		if len(p) != len(ref) {
			panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(p), len(ref)))
		}
		inside := true
		for i := range p {
			if p[i] >= ref[i] {
				inside = false
				break
			}
		}
		if inside {
			clipped = append(clipped, p)
		}
	}
	front := Filter(clipped)
	return wfg(front, ref)
}

// wfg implements the WFG exact hypervolume recursion.
func wfg(front [][]float64, ref []float64) float64 {
	total := 0.0
	for i, p := range front {
		total += exclusive(p, front[i+1:], ref)
	}
	return total
}

// exclusive returns the volume dominated by p and by none of rest.
func exclusive(p []float64, rest [][]float64, ref []float64) float64 {
	return inclusive(p, ref) - wfg(Filter(limitSet(rest, p)), ref)
}

// inclusive returns the box volume between p and ref.
func inclusive(p []float64, ref []float64) float64 {
	v := 1.0
	for i := range p {
		v *= ref[i] - p[i]
	}
	return v
}

// limitSet projects every point of s onto the region dominated by p.
func limitSet(s [][]float64, p []float64) [][]float64 {
	out := make([][]float64, len(s))
	for i, q := range s {
		m := make([]float64, len(q))
		for j := range q {
			if q[j] > p[j] {
				m[j] = q[j]
			} else {
				m[j] = p[j]
			}
		}
		out[i] = m
	}
	return out
}

// Contribution returns the increase in hypervolume from adding point p to
// the set — the quantity SMS-EGO maximizes. Like Hypervolume it ignores
// points with any coordinate at or beyond ref, so a p outside the reference
// box contributes 0, as does a p that some point weakly dominates.
//
// For three objectives it computes p's exclusive volume directly with
// contribution3; otherwise it subtracts the set's hypervolume from the
// hypervolume with p added.
func Contribution(points [][]float64, p []float64, ref []float64) float64 {
	if len(ref) == 3 {
		return contribution3(points, p, ref)
	}
	base := Hypervolume(points, ref)
	with := Hypervolume(append(append([][]float64{}, points...), p), ref)
	return with - base
}

// contribution3 returns the volume of the box between p and ref that no
// point of the set dominates. Each point f is limited to q = max(f, p), the
// part of its box inside p's; the q strictly inside ref are swept in order
// of their last coordinate. Between consecutive last-coordinate values the
// covered part of p's 2-D face is the union of the active q's boxes, so
// each slab adds its height times the face area left uncovered, read off
// the staircase of the active q sorted by their first coordinate. Every
// term is non-negative, and a call allocates twice whatever the set's size.
func contribution3(points [][]float64, p []float64, ref []float64) float64 {
	if len(p) != len(ref) {
		panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(p), len(ref)))
	}
	for i := range p {
		if p[i] >= ref[i] {
			return 0
		}
	}
	qs := make([][3]float64, 0, len(points))
	for _, f := range points {
		if len(f) != len(ref) {
			panic(fmt.Sprintf("pareto: point dim %d vs ref dim %d", len(f), len(ref)))
		}
		q := [3]float64{max(f[0], p[0]), max(f[1], p[1]), max(f[2], p[2])}
		if q[0] < ref[0] && q[1] < ref[1] && q[2] < ref[2] {
			qs = append(qs, q)
		}
	}
	slices.SortFunc(qs, func(a, b [3]float64) int { return cmp.Compare(a[2], b[2]) })

	active := make([][2]float64, 0, len(qs)) // sorted by first coordinate
	vol, z := 0.0, p[2]
	for next := 0; ; {
		for ; next < len(qs) && qs[next][2] <= z; next++ {
			q := [2]float64{qs[next][0], qs[next][1]}
			active = append(active, q)
			j := len(active) - 1
			for ; j > 0 && active[j-1][0] > q[0]; j-- {
				active[j] = active[j-1]
			}
			active[j] = q
		}
		top := ref[2]
		if next < len(qs) {
			top = qs[next][2]
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
		if next == len(qs) {
			return vol
		}
		z = top
	}
}
