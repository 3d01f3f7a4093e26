package main

import (
	"math"
	"regexp"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailPercentile picks the highest of the usual reporting percentiles that
// still has at least ten of n samples beyond its nearest rank; 0 when n is
// too small for any.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, perMille := range []int{500, 900, 990, 999} {
		rank := (perMille*n + 999) / 1000
		if n-rank >= 10 {
			best = float64(perMille) / 10
		}
	}
	return best
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed stretch of one job's timeline, in seconds since the
// job started.
type interval struct{ start, end float64 }

func (iv interval) len() float64 { return iv.end - iv.start }

// unionWithin returns the length of the union of ivs clipped to [lo, hi]:
// overlapping intervals (concurrent evaluations) count once.
func unionWithin(ivs []interval, lo, hi float64) float64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := math.Max(iv.start, lo), math.Min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	total, curS, curE := 0.0, 0.0, math.Inf(-1)
	for _, iv := range clipped {
		if iv.start > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = iv.start, iv.end
			continue
		}
		curE = math.Max(curE, iv.end)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) float64 {
	return span.len() - unionWithin(children, span.start, span.end)
}

// residual is what the named layers leave of a wall time unexplained.
func residual(wall float64, layers ...float64) float64 {
	for _, l := range layers {
		wall -= l
	}
	return wall
}

// Metric names and units follow the benchmark contract's grammar.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)
