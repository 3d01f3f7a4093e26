package systolic

import (
	"testing"

	"autopilot/internal/policy"
)

func testConfig() Config {
	return Config{
		Rows: 32, Cols: 32,
		IfmapKB: 256, FilterKB: 256, OfmapKB: 256,
		Dataflow: OutputStationary, FreqMHz: 500, BandwidthGBps: 4,
	}
}

func buildNet(t *testing.T, h policy.Hyper) *policy.Network {
	t.Helper()
	n, err := policy.Build(h, policy.DefaultTemplate())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rows: 0, Cols: 8, IfmapKB: 32, FilterKB: 32, OfmapKB: 32, FreqMHz: 500, BandwidthGBps: 4},
		{Rows: 8, Cols: 8, IfmapKB: 0, FilterKB: 32, OfmapKB: 32, FreqMHz: 500, BandwidthGBps: 4},
		{Rows: 8, Cols: 8, IfmapKB: 32, FilterKB: 32, OfmapKB: 32, FreqMHz: 0, BandwidthGBps: 4},
		{Rows: 8, Cols: 8, IfmapKB: 32, FilterKB: 32, OfmapKB: 32, FreqMHz: 500, BandwidthGBps: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConfigAccessors(t *testing.T) {
	c := testConfig()
	if c.PEs() != 1024 {
		t.Errorf("PEs = %d", c.PEs())
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestDataflowStrings(t *testing.T) {
	if OutputStationary.String() != "os" || WeightStationary.String() != "ws" || InputStationary.String() != "is" {
		t.Fatal("bad dataflow names")
	}
}

func TestSimulateBasicSanity(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 5, Filters: 32})
	rep, err := Simulate(n, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers) != len(n.Specs) {
		t.Fatalf("layers = %d, want %d", len(rep.Layers), len(n.Specs))
	}
	if rep.Cycles <= 0 || rep.FPS <= 0 || rep.RuntimeSec <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("utilization = %g", rep.Utilization)
	}
	var macSum int64
	for _, l := range rep.Layers {
		if l.Cycles < l.ComputeCycles || l.Cycles < l.DRAMCycles {
			t.Fatalf("layer %s: cycles %d below max(compute %d, dram %d)",
				l.Name, l.Cycles, l.ComputeCycles, l.DRAMCycles)
		}
		macSum += l.MACs
	}
	if macSum != n.MACs() {
		t.Fatalf("MAC sum %d != network MACs %d", macSum, n.MACs())
	}
}

func TestSimulateErrors(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 2, Filters: 32})
	if _, err := Simulate(n, Config{}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := Simulate(nil, testConfig()); err == nil {
		t.Fatal("expected empty-network error")
	}
}

func TestMorePEsNeverSlowerCompute(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 7, Filters: 48})
	prev := int64(1 << 62)
	for _, side := range []int{8, 16, 32, 64, 128, 256} {
		c := testConfig()
		c.Rows, c.Cols = side, side
		rep, err := Simulate(n, c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ComputeCycles > prev {
			t.Fatalf("%dx%d: compute cycles %d > previous %d", side, side, rep.ComputeCycles, prev)
		}
		prev = rep.ComputeCycles
	}
}

func TestDiminishingReturnsFromHugeArrays(t *testing.T) {
	// once the array exceeds the layer dimensions, extra PEs only add
	// fill/drain cost: utilization must collapse.
	n := buildNet(t, policy.Hyper{Layers: 4, Filters: 32})
	small := testConfig()
	small.Rows, small.Cols = 16, 16
	huge := testConfig()
	huge.Rows, huge.Cols = 1024, 1024
	rs, err := Simulate(n, small)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Simulate(n, huge)
	if err != nil {
		t.Fatal(err)
	}
	if rh.Utilization >= rs.Utilization {
		t.Fatalf("utilization small %g, huge %g: want collapse on huge array",
			rs.Utilization, rh.Utilization)
	}
}

func TestSmallerSRAMMoreDRAMTraffic(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 7, Filters: 64})
	big := testConfig()
	big.IfmapKB, big.FilterKB, big.OfmapKB = 4096, 4096, 4096
	small := testConfig()
	small.IfmapKB, small.FilterKB, small.OfmapKB = 32, 32, 32
	rb, err := Simulate(n, big)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Simulate(n, small)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DRAMReads <= rb.DRAMReads {
		t.Fatalf("DRAM reads small-SRAM %d <= big-SRAM %d", rs.DRAMReads, rb.DRAMReads)
	}
}

func TestMoreBandwidthNeverSlower(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 7, Filters: 48})
	prev := int64(1 << 62)
	for _, bw := range []float64{0.5, 1, 2, 4, 8, 16} {
		c := testConfig()
		c.BandwidthGBps = bw
		rep, err := Simulate(n, c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles > prev {
			t.Fatalf("bw %g: cycles grew", bw)
		}
		prev = rep.Cycles
	}
}

func TestLargeModelIsDRAMBound(t *testing.T) {
	// the fc1 layer is tens of MB of weights: with modest bandwidth the
	// network must be memory bound, the regime the paper's designs sit in.
	n := buildNet(t, policy.Hyper{Layers: 7, Filters: 48})
	c := testConfig()
	c.Rows, c.Cols = 128, 128
	c.BandwidthGBps = 2
	rep, err := Simulate(n, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DRAMCycles <= rep.ComputeCycles {
		t.Fatalf("expected DRAM bound: dram %d, compute %d", rep.DRAMCycles, rep.ComputeCycles)
	}
}

func TestResidentWeightsCutDRAMTraffic(t *testing.T) {
	// a tiny network whose weights fit in a 4 MB filter scratchpad should
	// move far fewer DRAM bytes than with a 32 KB scratchpad.
	cfg := policy.TemplateConfig{InputH: 21, InputW: 21, InputC: 1, StateDim: 4, Hidden1: 64, Hidden2: 32, Actions: 8}
	n, err := policy.Build(policy.Hyper{Layers: 2, Filters: 32}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := testConfig()
	big.FilterKB = 4096
	small := testConfig()
	small.FilterKB = 32
	rb, _ := Simulate(n, big)
	rs, _ := Simulate(n, small)
	if rb.DRAMReads >= rs.DRAMReads {
		t.Fatalf("resident weights should cut DRAM reads: big %d, small %d", rb.DRAMReads, rs.DRAMReads)
	}
}

func TestDataflowsAllProduceValidReports(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 5, Filters: 48})
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		c := testConfig()
		c.Dataflow = df
		rep, err := Simulate(n, c)
		if err != nil {
			t.Fatalf("%v: %v", df, err)
		}
		if rep.Cycles <= 0 || rep.SRAMReads <= 0 {
			t.Fatalf("%v: degenerate report", df)
		}
	}
}

func TestComputeCyclesLowerBoundedByIdeal(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 6, Filters: 48})
	for _, df := range []Dataflow{OutputStationary, WeightStationary, InputStationary} {
		c := testConfig()
		c.Dataflow = df
		rep, err := Simulate(n, c)
		if err != nil {
			t.Fatal(err)
		}
		ideal := n.MACs() / int64(c.PEs())
		if rep.ComputeCycles < ideal {
			t.Fatalf("%v: compute cycles %d below ideal %d", df, rep.ComputeCycles, ideal)
		}
	}
}

func TestHigherFrequencyFasterRuntime(t *testing.T) {
	n := buildNet(t, policy.Hyper{Layers: 4, Filters: 32})
	slow := testConfig()
	slow.FreqMHz = 100
	fast := testConfig()
	fast.FreqMHz = 1000
	// hold bytes-per-second constant: bandwidth stays in GB/s terms
	rSlow, _ := Simulate(n, slow)
	rFast, _ := Simulate(n, fast)
	if rFast.RuntimeSec >= rSlow.RuntimeSec {
		t.Fatalf("1 GHz (%gs) not faster than 100 MHz (%gs)", rFast.RuntimeSec, rSlow.RuntimeSec)
	}
}

func TestFPSInPaperOperatingRange(t *testing.T) {
	// Table III: the E2E NPU spans roughly 22–200+ FPS across the template
	// space. Check a mid-size design lands inside a sane band for the
	// dense-obstacle policy.
	n := buildNet(t, policy.Hyper{Layers: 7, Filters: 48})
	c := Config{Rows: 128, Cols: 128, IfmapKB: 512, FilterKB: 512, OfmapKB: 512,
		Dataflow: OutputStationary, FreqMHz: 500, BandwidthGBps: 2.5}
	rep, err := Simulate(n, c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FPS < 10 || rep.FPS > 400 {
		t.Fatalf("FPS = %.1f, want within [10,400]", rep.FPS)
	}
}
