package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"autopilot/internal/core"
)

// benchmarkJSON is the part of ../BENCHMARK.json this program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !sameSet(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, ours)
	}
	check := func(kind string, decl []declared, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(decl) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program %d", kind, len(want), len(decl))
		}
		for _, m := range want {
			got, ok := metricsFor(decl, nil)[m.Name]
			if !ok {
				t.Errorf("%s: %s declared but never printed", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s printed in %s, declared in %s", kind, m.Name, got.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// Every figure the measurement paths produce must be declared (metricsFor
// panics otherwise), and together they must produce every declared metric.
func TestEveryDeclaredFigureIsProduced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real jobs")
	}
	produced := map[string]bool{}
	for name := range endToEndFigures([]jobStat{{wall: 1}}, []float64{1}, 1, 0) {
		produced[name] = true
	}
	for _, d := range endToEnd {
		if !produced[d.name] {
			t.Errorf("end-to-end metric %s is never produced", d.name)
		}
	}

	ctx := context.Background()
	add := func(m map[string]float64) {
		metricsFor(perLayer, m)
		for name := range m {
			produced[name] = true
		}
	}
	for _, name := range []string{"sweep-random", "dse-grid"} {
		w := findWorkload(name)
		e, err := setup(w)
		if err != nil {
			t.Fatal(err)
		}
		m, o, err := tracePair(ctx, w, e, 7)
		e.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(m)
		r, err := replays(o)
		if err != nil {
			t.Fatalf("%s replays: %v", name, err)
		}
		add(r)
	}
	spec, err := codesignRequest(1, true).Spec()
	if err != nil {
		t.Fatal(err)
	}
	tm := map[string]float64{}
	if err := replayTraining(tm, &outcome{rep: &core.Report{Spec: spec}}); err != nil {
		t.Fatal(err)
	}
	add(tm)
	for _, d := range perLayer {
		if !produced[d.name] {
			t.Errorf("per-layer metric %s is never produced", d.name)
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
