package main

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"autopilot/internal/dse"
	"autopilot/internal/pareto"
)

func TestBoxUnionVolumeByHand(t *testing.T) {
	ref := []float64{4, 4, 4}
	cases := []struct {
		pts  [][]float64
		want float64
	}{
		{nil, 0},
		{[][]float64{{1, 1, 1}}, 27},
		// Two boxes of 2x3x3 and 3x2x3 overlap in 2x2x3.
		{[][]float64{{2, 1, 1}, {1, 2, 1}}, 18 + 18 - 12},
		// A dominated point adds nothing; a point on the reference face
		// spans no volume.
		{[][]float64{{1, 1, 1}, {2, 2, 2}, {0, 0, 4}}, 27},
		// Points beyond the reference in one objective are dropped.
		{[][]float64{{1, 1, 5}, {3, 3, 3}}, 1},
	}
	for _, c := range cases {
		if got := boxUnionVolume(c.pts, ref); !near(got, c.want) {
			t.Errorf("boxUnionVolume(%v) = %v, want %v", c.pts, got, c.want)
		}
	}
}

// The benchmark's own hypervolume must agree with the library's on random
// point sets and on the workloads' real frontiers.
func TestHypervolumeMatchesPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + trial%40
		pts := make([][]float64, n)
		for i := range pts {
			// The first objective is a negated success rate, as in dse.
			pts[i] = []float64{-rng.Float64(), 30 * rng.Float64(), 1.1 * rng.Float64()}
		}
		want := pareto.Hypervolume(pts, frontierRef)
		if got := boxUnionVolume(pts, frontierRef); !relNear(got, want) {
			t.Fatalf("trial %d: boxUnionVolume = %v, pareto.Hypervolume = %v", trial, got, want)
		}
	}

	if testing.Short() {
		t.Skip("runs real jobs")
	}
	ctx := context.Background()
	var fronts [][]dse.Evaluated
	// One six-second job of each codesign workload; the cheap workloads over
	// the seed basket.
	for name, seeds := range map[string]int64{"codesign-default": 1, "codesign-train": 1, "sweep-random": 3, "dse-grid": 3} {
		w := findWorkload(name)
		e, err := setup(w)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			o, err := w.run(ctx, e, seed, nil)
			if err != nil {
				e.close()
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			fronts = append(fronts, o.res.Pareto())
		}
		e.close()
	}
	for i, front := range fronts {
		objs := make([][]float64, len(front))
		for j, e := range front {
			objs[j] = e.Objectives()
		}
		want := pareto.Hypervolume(objs, frontierRef)
		if got := hypervolume(front); !relNear(got, want) || got <= 0 {
			t.Errorf("front %d (%d points): hypervolume = %v, pareto.Hypervolume = %v", i, len(front), got, want)
		}
	}
}

func relNear(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
