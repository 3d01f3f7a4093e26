package hw

import (
	"strings"
	"testing"

	"autopilot/internal/catalog"
	"autopilot/internal/cpu"
	"autopilot/internal/policy"
	"autopilot/internal/power"
	"autopilot/internal/systolic"
)

func testNetwork(t *testing.T) *policy.Network {
	t.Helper()
	net, err := policy.Build(policy.Hyper{Layers: 5, Filters: 32}, policy.DefaultTemplate())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func testConfig() systolic.Config {
	return systolic.Config{
		Rows: 32, Cols: 32, IfmapKB: 64, FilterKB: 64, OfmapKB: 64,
		Dataflow: systolic.OutputStationary, FreqMHz: 500, BandwidthGBps: 4,
	}
}

// TestWorkloadHelpers pins the workload lowering: weights are one byte per
// parameter (int8), and SPA workloads have none.
func TestWorkloadHelpers(t *testing.T) {
	net := testNetwork(t)
	w := NetworkWorkload("L5F32", net)
	if w.Kind != WorkloadNetwork || w.Kind.String() != "network" {
		t.Errorf("kind = %v (%s)", w.Kind, w.Kind)
	}
	if got, want := w.WeightBytes(), net.Params(); got != want {
		t.Errorf("WeightBytes = %d, want %d", got, want)
	}

	s := SPAWorkload("spa", 12345)
	if s.Kind != WorkloadSPA || s.Kind.String() != "spa" {
		t.Errorf("kind = %v (%s)", s.Kind, s.Kind)
	}
	if s.WeightBytes() != 0 {
		t.Errorf("SPA WeightBytes = %d, want 0", s.WeightBytes())
	}
	if (Workload{Kind: WorkloadNetwork}).WeightBytes() != 0 {
		t.Error("nil-net workload should have zero weight bytes")
	}
}

// TestSystolicBackendParity proves the backend reproduces the direct
// systolic.Simulate + power.Model path bitwise — the invariant the Phase-2
// golden tests rely on.
func TestSystolicBackendParity(t *testing.T) {
	net := testNetwork(t)
	cfg := testConfig()
	pm := power.Default()

	be := SystolicBackend{Config: cfg, Power: pm}
	est, err := be.Estimate(NetworkWorkload("L5F32", net))
	if err != nil {
		t.Fatal(err)
	}

	rep, err := systolic.Simulate(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bd := pm.Accelerator(rep)
	if est.FPS != rep.FPS {
		t.Errorf("FPS = %x, want %x", est.FPS, rep.FPS)
	}
	if est.RuntimeSec != rep.RuntimeSec {
		t.Errorf("RuntimeSec = %x, want %x", est.RuntimeSec, rep.RuntimeSec)
	}
	if est.AccelPowerW != bd.Total() {
		t.Errorf("AccelPowerW = %x, want %x", est.AccelPowerW, bd.Total())
	}
	if est.SoCPowerW != power.SoCTotal(bd) {
		t.Errorf("SoCPowerW = %x, want %x", est.SoCPowerW, power.SoCTotal(bd))
	}
	if est.SoCPowerW != pm.SoC(rep) {
		t.Errorf("SoCPowerW = %x, power.Model.SoC says %x", est.SoCPowerW, pm.SoC(rep))
	}
	if est.Breakdown != bd {
		t.Errorf("Breakdown = %+v, want %+v", est.Breakdown, bd)
	}
	if est.FlownWeightG != 0 {
		t.Errorf("FlownWeightG = %v, want 0 (payload comes from the thermal model)", est.FlownWeightG)
	}
}

// jetsonTX2 is the catalog's Jetson TX2 board.
func jetsonTX2(t *testing.T) catalog.ComputeBoard {
	t.Helper()
	b, err := catalog.BoardByName("jetson-tx2")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBoardBackendParity proves the backend reproduces the board arithmetic
// the old core.EvaluateBaseline inlined, including the flown-weight hint.
func TestBoardBackendParity(t *testing.T) {
	net := testNetwork(t)
	w := NetworkWorkload("L5F32", net)
	for _, b := range catalog.Boards() {
		est, err := BoardBackend{Board: b}.Estimate(w)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got, want := est.FPS, b.FPSFor(w.WeightBytes()); got != want {
			t.Errorf("%s: FPS = %x, want %x", b.Name, got, want)
		}
		if got, want := est.SoCPowerW, b.PowerW+power.FixedComponentsW; got != want {
			t.Errorf("%s: SoCPowerW = %x, want %x", b.Name, got, want)
		}
		if est.FlownWeightG != b.WeightG {
			t.Errorf("%s: FlownWeightG = %v, want %v", b.Name, est.FlownWeightG, b.WeightG)
		}
		if est.FPS > 0 && est.RuntimeSec != 1/est.FPS {
			t.Errorf("%s: RuntimeSec = %x, want %x", b.Name, est.RuntimeSec, 1/est.FPS)
		}
	}

	// A board with no validated model prices at zero throughput, not an error.
	est, err := BoardBackend{Board: jetsonTX2(t)}.Estimate(Workload{Name: "no-model", Kind: WorkloadNetwork})
	if err != nil {
		t.Fatal(err)
	}
	if est.FPS != 0 || est.RuntimeSec != 0 {
		t.Errorf("no-model estimate = %+v, want zero throughput", est)
	}
}

// TestSPAOnCPUGolden pins, bit for bit, the estimate of one SPA workload on
// every catalog CPU: the pricing that ExtSPA and examples/spa_pipeline run.
// The values were captured through the SPABackend adapter, which priced
// the workload against CPUBackend's scalar rating.
func TestSPAOnCPUGolden(t *testing.T) {
	golden := []struct {
		cfg                   string
		fps, rt, accel, socPw float64
	}{
		{"1-core @200MHz IPC 0.8", 0x1.e50883b0883b1p+17, 0x1.0e3ba6dc96e92p-18, 0x1.70a3d70a3d70ap-02, 0x1.edf505d0fa58fp-02},
		{"2-core @400MHz IPC 1.0", 0x1.03d6d8d56d8d5p+20, 0x1.f86f599bc45dep-21, 0x1.147ae147ae148p-01, 0x1.532378ab0c88bp-01},
		{"4-core @1000MHz IPC 1.2", 0x1.65476a2576a25p+22, 0x1.6edc9e42bd5b9p-23, 0x1.8p+00, 0x1.9f544bb1af3a1p+00},
		{"8-core @1500MHz IPC 2.0", 0x1.95ffb2cd7b2cdp+24, 0x1.42d69fbfd9d5bp-25, 0x1.f333333333332p+01, 0x1.016eac8605681p+02},
	}
	cpus := cpu.Catalog()
	if len(cpus) != len(golden) {
		t.Fatalf("catalog has %d CPUs, golden %d", len(cpus), len(golden))
	}
	for i, c := range cpus {
		g := golden[i]
		if c.String() != g.cfg {
			t.Fatalf("catalog[%d] = %s, golden %s", i, c, g.cfg)
		}
		est, err := CPUBackend{Config: c, Power: cpu.DefaultPowerModel()}.Estimate(SPAWorkload("spa", 451))
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"FPS", est.FPS, g.fps},
			{"RuntimeSec", est.RuntimeSec, g.rt},
			{"AccelPowerW", est.AccelPowerW, g.accel},
			{"SoCPowerW", est.SoCPowerW, g.socPw},
		} {
			if f.got != f.want {
				t.Errorf("%s: %s = %x, want %x", c, f.name, f.got, f.want)
			}
		}
	}
}

// TestErrorPaths pins the failure modes: kind mismatches, missing layer
// stacks, zero op counts and invalid CPUs all return errors instead of
// degenerate estimates.
func TestErrorPaths(t *testing.T) {
	net := testNetwork(t)
	sys := SystolicBackend{Config: testConfig(), Power: power.Default()}
	board := BoardBackend{Board: jetsonTX2(t)}
	cb := CPUBackend{Config: cpu.Catalog()[0], Power: cpu.DefaultPowerModel()}

	cases := []struct {
		name string
		be   Backend
		w    Workload
		want string
	}{
		{"systolic nil net", sys, Workload{Name: "x", Kind: WorkloadNetwork}, "no layer stack"},
		{"systolic unknown kind", sys, Workload{Name: "x", Kind: WorkloadKind(9)}, "cannot price"},
		{"spa on systolic", sys, SPAWorkload("x", 1000), "cannot price spa"},
		{"board unknown kind", board, Workload{Name: "x", Kind: WorkloadKind(9)}, "cannot price"},
		{"spa on board", board, SPAWorkload("x", 1000), "cannot price spa"},
		{"network on cpu", cb, NetworkWorkload("x", net), "cannot price network"},
		{"spa zero ops", cb, SPAWorkload("x", 0), "no op count"},
		{"invalid cpu", CPUBackend{Power: cpu.DefaultPowerModel()}, SPAWorkload("x", 1000), "implausible config"},
	}
	for _, c := range cases {
		_, err := c.be.Estimate(c.w)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
