package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"autopilot/internal/bayesopt"
	"autopilot/internal/dse"
)

// testConfig shrinks the budget so the suite tests run fast.
func testConfig() dse.Config {
	bo := bayesopt.DefaultConfig()
	bo.InitSamples, bo.Iterations, bo.ScreenSize = 10, 14, 96
	return dse.Config{CandidatePool: 192, BO: bo, Seed: 1, ProbeCorners: true}
}

func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"n"},
	}
	s := tab.String()
	for _, want := range []string{"== X: demo ==", "long-header", "333333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig2bStructure(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 27 {
		t.Fatalf("rows = %d, want 27 (full Table II family)", len(tab.Rows))
	}
	// success values inside the paper band, params positive
	for _, row := range tab.Rows {
		if p := parse(t, row[1]); p <= 0 {
			t.Fatalf("params %q not positive", row[1])
		}
		for _, c := range row[2:] {
			v := parse(t, c)
			if v < 0.5 || v > 0.95 {
				t.Fatalf("success %g outside the paper band", v)
			}
		}
	}
}

func TestFig3bParetoMarksExist(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 { // 8 array sizes × 3 SRAM sizes
		t.Fatalf("rows = %d, want 24", len(tab.Rows))
	}
	stars := 0
	for _, row := range tab.Rows {
		if row[5] == "*" {
			stars++
		}
	}
	if stars == 0 || stars == len(tab.Rows) {
		t.Fatalf("pareto marks = %d of %d; expected a strict subset", stars, len(tab.Rows))
	}
}

func TestFig3bSpansPaperPowerRange(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	minW, maxW := 1e9, 0.0
	minF, maxF := 1e9, 0.0
	for _, row := range tab.Rows {
		w, f := parse(t, row[3]), parse(t, row[2])
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	// Table III: ~0.7-8.24 W and ~22-200 FPS
	if minW > 1.0 || maxW < 5 {
		t.Errorf("power range [%.2f, %.2f] W does not span the paper's ~0.7-8.24", minW, maxW)
	}
	if minF > 25 || maxF < 150 {
		t.Errorf("FPS range [%.1f, %.1f] does not span the paper's ~22-200", minF, maxF)
	}
}

func TestFig5AutoPilotWinsEverywhere(t *testing.T) {
	s := NewSuite(testConfig())
	tabs, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("sub-tables = %d, want 3 (Fig. 5a-c)", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 3 {
			t.Fatalf("%s rows = %d, want 3 scenarios", tab.ID, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			ap := parse(t, row[1])
			for i, c := range row[2:5] {
				base := parse(t, c)
				if base > 0 && ap <= base {
					t.Errorf("%s %s: AutoPilot (%.2f) does not beat baseline %d (%.2f)",
						tab.ID, row[0], ap, i, base)
				}
			}
		}
	}
}

func TestFig5NanoGainsLargest(t *testing.T) {
	// Fig. 5: smaller UAVs benefit most (2.25x nano vs 1.43x mini)
	s := NewSuite(testConfig())
	tabs, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	gain := func(tab Table) float64 {
		total := 0.0
		for _, row := range tab.Rows {
			total += parse(t, row[5])
		}
		return total / float64(len(tab.Rows))
	}
	mini, nano := gain(tabs[0]), gain(tabs[2])
	if nano <= mini {
		t.Errorf("nano mean gain %.2f not larger than mini %.2f", nano, mini)
	}
}

func TestFig6NineRowsNormalized(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (3 UAVs x 3 scenarios)", len(tab.Rows))
	}
	// every normalized value is >= 1 and at least one parameter is exactly 1x
	for col := 1; col < len(tab.Header); col++ {
		sawUnit := false
		for _, row := range tab.Rows {
			v := parse(t, row[col])
			if v < 1-1e-9 {
				t.Fatalf("normalized value %g < 1", v)
			}
			if v < 1+1e-9 {
				sawUnit = true
			}
		}
		if !sawUnit {
			t.Fatalf("column %s has no 1.00x entry; normalization broken", tab.Header[col])
		}
	}
}

func TestFig6ShowsVariation(t *testing.T) {
	// the point of Fig. 6: parameters vary across scenarios
	s := NewSuite(testConfig())
	tab, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, row := range tab.Rows {
		distinct[strings.Join(row[1:], "|")] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all nine scenarios selected identical DSSoC parameters; no customization")
	}
}

func TestFig7ProfilesMatchPaperShape(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want HT/LP/HE/AP", len(tab.Rows))
	}
	get := func(name string, col int) float64 {
		for _, row := range tab.Rows {
			if row[0] == name {
				return parse(t, row[col])
			}
		}
		t.Fatalf("row %s missing", name)
		return 0
	}
	// HT fastest, LP lowest power, HE most efficient among the conventional
	// picks, heavier HT payload than AP
	if !(get("HT", 2) > get("LP", 2) && get("HT", 2) > get("AP", 2)) {
		t.Error("HT must have the highest FPS")
	}
	if !(get("LP", 3) < get("HE", 3) && get("LP", 3) < get("HT", 3)) {
		t.Error("LP must have the lowest power")
	}
	if !(get("HE", 4) > get("HT", 4) && get("HE", 4) >= get("LP", 4)) {
		t.Error("HE must beat HT and LP on FPS/W")
	}
	if get("HT", 5) <= get("AP", 5) {
		t.Error("HT payload must outweigh AP payload")
	}
}

func TestFig8to10APAlwaysWins(t *testing.T) {
	s := NewSuite(testConfig())
	for _, f := range []func() (Table, error){s.Fig8, s.Fig9, s.Fig10} {
		tab, err := f()
		if err != nil {
			t.Fatal(err)
		}
		ap := parse(t, tab.Rows[0][1])
		other := parse(t, tab.Rows[1][1])
		if ap <= other {
			t.Errorf("%s: AP missions %.2f do not beat %.2f", tab.ID, ap, other)
		}
	}
}

func TestFig9LPUnderProvisioned(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[1][6] != "under-provisioned" {
		t.Fatalf("LP provisioning = %q", tab.Rows[1][6])
	}
}

func TestFig11KneeOrdering(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	spark, nano := parse(t, tab.Rows[0][2]), parse(t, tab.Rows[1][2])
	if nano <= spark {
		t.Fatalf("nano knee %.1f must exceed Spark knee %.1f", nano, spark)
	}
	if spark < 20 || spark > 34 || nano < 38 || nano > 54 {
		t.Fatalf("knees (%.1f, %.1f) drifted from the paper's (27, 46)", spark, nano)
	}
}

func TestTableVDegradationStructure(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.TableV()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	if tab.Rows[0][2] != "0%" {
		t.Fatalf("reference design degradation = %q, want 0%%", tab.Rows[0][2])
	}
	opt := parse(t, tab.Rows[0][1])
	tx2, ncs := parse(t, tab.Rows[3][1]), parse(t, tab.Rows[4][1])
	if tx2 >= opt || ncs >= opt {
		t.Fatal("general-purpose hardware must degrade missions on the mini-UAV")
	}
	if ncs >= tx2 {
		t.Fatal("NCS (compute bound) must degrade more than TX2 in this setup")
	}
}

func TestSuiteCachesReports(t *testing.T) {
	s := NewSuite(testConfig())
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	n := len(s.reports)
	if _, err := s.Fig8(); err != nil { // same (nano, dense) pair
		t.Fatal(err)
	}
	if len(s.reports) != n {
		t.Fatal("Fig8 re-ran a pipeline Fig7 already cached")
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite; skipped with -short")
	}
	s := NewSuite(testConfig())
	tabs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Fig2b", "Fig3b", "Fig5a", "Fig5b", "Fig5c", "Fig6", "Fig7", "Fig8", "Fig9", "Fig10", "Fig11", "TableV", "ExtSensor", "ExtOptimizer", "ExtBaselines", "ExtSPA"}
	if len(tabs) != len(want) {
		t.Fatalf("tables = %d, want %d", len(tabs), len(want))
	}
	for i, tab := range tabs {
		if tab.ID != want[i] {
			t.Errorf("table %d = %s, want %s", i, tab.ID, want[i])
		}
		if len(tab.Rows) == 0 || tab.String() == "" {
			t.Errorf("table %s empty", tab.ID)
		}
	}
}

func TestExtSensorSlowSensorCostsMissions(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.ExtSensor()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	m30 := parse(t, tab.Rows[0][4])
	m60 := parse(t, tab.Rows[1][4])
	m90 := parse(t, tab.Rows[2][4])
	if m30 >= m60 {
		t.Fatalf("30 FPS sensor (%.2f) must cost missions vs 60 FPS (%.2f)", m30, m60)
	}
	// once physics binds, a faster sensor buys (almost) nothing
	if m90 > m60*1.05 {
		t.Fatalf("90 FPS sensor (%.2f) should not beat 60 FPS (%.2f) materially", m90, m60)
	}
	if tab.Rows[0][2] != "sensor-bound" {
		t.Fatalf("30 FPS row bound = %q, want sensor-bound", tab.Rows[0][2])
	}
}

func TestExtOptimizerAllMethodsProduceFronts(t *testing.T) {
	s := NewSuite(testConfig())
	tab, err := s.ExtOptimizer()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 optimizers", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if parse(t, row[2]) <= 0 {
			t.Fatalf("%s produced an empty front", row[0])
		}
		if parse(t, row[3]) <= 0 {
			t.Fatalf("%s produced zero hypervolume", row[0])
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### X — demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestPlots(t *testing.T) {
	s := NewSuite(testConfig())
	pareto, err := s.ParetoPlot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Pareto front", "AP (AutoPilot)", "H", "L"} {
		if !strings.Contains(pareto, want) {
			t.Fatalf("pareto plot missing %q", want)
		}
	}
	roof, err := s.RooflinePlot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"v_safe @ AP payload", "lowered ceiling", "action throughput"} {
		if !strings.Contains(roof, want) {
			t.Fatalf("roofline plot missing %q", want)
		}
	}
}
