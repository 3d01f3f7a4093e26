// Package systolic is the SCALE-Sim substitute: an analytical performance
// model of a systolic-array neural-network accelerator. Given an E2E model's
// layer geometry and a hardware configuration (PE array shape, SRAM sizes,
// dataflow, clock, DRAM bandwidth), it reports per-layer and whole-network
// cycle counts, SRAM/DRAM access counts, runtime and frames per second —
// exactly the quantities AutoPilot's Phase 2 consumes (paper §III-B).
//
// The model follows SCALE-Sim's analytical mode: each layer is lowered to a
// GEMM of shape M×K×N (filters × window × output pixels); the array
// processes it in tiles with fill/drain overheads per the dataflow, and
// double-buffered DRAM transfers overlap compute, so the layer time is
// max(compute cycles, DRAM cycles).
package systolic

import (
	"fmt"

	"autopilot/internal/policy"
)

// Dataflow selects the systolic mapping strategy.
type Dataflow int

// Supported dataflows (the three SCALE-Sim mappings).
const (
	OutputStationary Dataflow = iota
	WeightStationary
	InputStationary
)

// String names the dataflow.
func (d Dataflow) String() string {
	switch d {
	case OutputStationary:
		return "os"
	case WeightStationary:
		return "ws"
	case InputStationary:
		return "is"
	default:
		return fmt.Sprintf("Dataflow(%d)", int(d))
	}
}

// Config is the accelerator hardware configuration (paper Table II search
// dimensions plus the fixed system-integration parameters).
type Config struct {
	Rows, Cols int // PE array shape

	IfmapKB  int // input feature-map scratchpad
	FilterKB int // filter scratchpad
	OfmapKB  int // output feature-map scratchpad

	Dataflow      Dataflow
	FreqMHz       float64 // accelerator clock
	BandwidthGBps float64 // DRAM bandwidth available to the accelerator
}

// PEs returns the number of processing elements.
func (c Config) PEs() int { return c.Rows * c.Cols }

// Validate checks the configuration for physical plausibility.
func (c Config) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("systolic: non-positive array %dx%d", c.Rows, c.Cols)
	}
	if c.IfmapKB <= 0 || c.FilterKB <= 0 || c.OfmapKB <= 0 {
		return fmt.Errorf("systolic: non-positive SRAM sizes %d/%d/%d KB", c.IfmapKB, c.FilterKB, c.OfmapKB)
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("systolic: non-positive frequency %g MHz", c.FreqMHz)
	}
	if c.BandwidthGBps <= 0 {
		return fmt.Errorf("systolic: non-positive bandwidth %g GB/s", c.BandwidthGBps)
	}
	return nil
}

// String renders the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("%dx%d/%s if%dK f%dK of%dK @%.0fMHz %.2fGB/s",
		c.Rows, c.Cols, c.Dataflow, c.IfmapKB, c.FilterKB, c.OfmapKB, c.FreqMHz, c.BandwidthGBps)
}

// gemm is the lowered shape of one layer: out = W(M×K) · X(K×N).
type gemm struct {
	M, K, N int64
}

func lower(l policy.LayerSpec) gemm {
	switch l.Kind {
	case policy.KindConv:
		d := l.Conv
		return gemm{
			M: int64(d.OutC),
			K: int64(d.InC) * int64(d.K) * int64(d.K),
			N: int64(d.OutH()) * int64(d.OutW()),
		}
	default:
		return gemm{M: int64(l.Out), K: int64(l.In), N: 1}
	}
}

// LayerReport is the simulator output for one layer.
type LayerReport struct {
	Name          string
	MACs          int64
	ComputeCycles int64
	DRAMCycles    int64
	Cycles        int64 // max(compute, DRAM) — double buffered
	Utilization   float64

	SRAMReads  int64 // bytes read from scratchpads
	SRAMWrites int64 // bytes written to scratchpads
	DRAMReads  int64 // bytes read from DRAM
	DRAMWrites int64 // bytes written to DRAM
}

// Report is the simulator output for a whole network on a configuration.
type Report struct {
	Config Config
	Layers []LayerReport

	Cycles        int64
	ComputeCycles int64
	DRAMCycles    int64
	RuntimeSec    float64
	FPS           float64
	Utilization   float64 // MAC-weighted mean array utilization

	SRAMReads, SRAMWrites int64
	DRAMReads, DRAMWrites int64
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("systolic: ceilDiv by non-positive")
	}
	return (a + b - 1) / b
}

// computeCycles returns the compute-cycle count and average utilization for
// one GEMM under the dataflow.
func computeCycles(g gemm, c Config) (int64, float64) {
	r, cl := int64(c.Rows), int64(c.Cols)
	var cycles int64
	switch c.Dataflow {
	case OutputStationary:
		// rows ↔ output pixels (N), cols ↔ filters (M); each tile streams K
		// operands plus fill/drain of the array diagonals.
		tiles := ceilDiv(g.N, r) * ceilDiv(g.M, cl)
		perTile := g.K + r + cl - 2
		cycles = tiles * perTile
	case WeightStationary:
		// rows ↔ window (K), cols ↔ filters (M); weights preloaded (r cycles),
		// then N activations stream through.
		folds := ceilDiv(g.K, r) * ceilDiv(g.M, cl)
		perFold := g.N + r + cl - 2 + r
		cycles = folds * perFold
	case InputStationary:
		// rows ↔ window (K), cols ↔ output pixels (N); inputs preloaded, M
		// filter rows stream through.
		folds := ceilDiv(g.K, r) * ceilDiv(g.N, cl)
		perFold := g.M + r + cl - 2 + r
		cycles = folds * perFold
	default:
		panic(fmt.Sprintf("systolic: unknown dataflow %d", int(c.Dataflow)))
	}
	ideal := ceilDiv(g.M*g.K*g.N, r*cl)
	util := float64(ideal) / float64(cycles)
	if util > 1 {
		util = 1
	}
	return cycles, util
}

// traffic returns SRAM and DRAM byte counts for one GEMM. Operands are 8-bit;
// partial sums are 4 bytes. The DRAM model is a two-level tiled-GEMM
// analysis: the operand that fits on-chip is read once from DRAM, the
// streamed operand is re-read once per resident-operand block, and the
// scheduler picks whichever loop order moves fewer bytes.
func traffic(g gemm, c Config, weightsResident bool) (sramR, sramW, dramR, dramW int64) {
	wBytes := g.M * g.K
	inBytes := g.K * g.N // im2col footprint; upper-bounds unique input bytes
	outBytes := g.M * g.N

	// SRAM traffic: the operand mapped onto the array is read once per fold
	// of the opposing dimension; the stationary operand is read once. Outputs
	// are written once, plus partial-sum round trips when K must be folded
	// (WS/IS dataflows).
	switch c.Dataflow {
	case OutputStationary:
		sramR = inBytes*ceilDiv(g.M, int64(c.Cols)) + wBytes*ceilDiv(g.N, int64(c.Rows))
	case WeightStationary:
		sramR = inBytes*ceilDiv(g.M, int64(c.Cols)) + wBytes
	default: // InputStationary
		sramR = inBytes + wBytes*ceilDiv(g.N, int64(c.Cols))
	}
	sramW = outBytes
	kFolds := int64(1)
	if c.Dataflow != OutputStationary {
		kFolds = ceilDiv(g.K, int64(c.Rows))
	}
	if kFolds > 1 {
		psum := outBytes * 4 * (kFolds - 1)
		sramR += psum
		sramW += psum
	}

	// DRAM traffic: weights arrive from DRAM unless the whole network is
	// resident (handled by the caller via weightsResident).
	filterCap := int64(c.FilterKB) * 1024
	ifmapCap := int64(c.IfmapKB) * 1024
	// order A: weights resident in blocks, inputs streamed per block
	blocksW := ceilDiv(wBytes, filterCap)
	costA := wBytes + inBytes*blocksW
	// order B: inputs resident in blocks, weights streamed per block
	blocksI := ceilDiv(inBytes, ifmapCap)
	costB := inBytes + wBytes*blocksI
	cost := costA
	if costB < cost {
		cost = costB
	}
	if weightsResident {
		// weights pinned on-chip: only activations move
		cost = inBytes
	}
	dramR = cost
	dramW = outBytes
	// spilled partial sums when the output tile exceeds the ofmap scratchpad
	if outBytes*4 > int64(c.OfmapKB)*1024 && kFolds > 1 {
		spill := outBytes * 4 * (kFolds - 1)
		dramR += spill
		dramW += spill
	}
	return sramR, sramW, dramR, dramW
}

// Simulate runs the network through the accelerator model.
func Simulate(n *policy.Network, c Config) (*Report, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n == nil || len(n.Specs) == 0 {
		return nil, fmt.Errorf("systolic: empty network")
	}
	// Weights stay resident across frames only when the entire network fits
	// in the filter scratchpad ("loaded as a one-time operation", Table III).
	var totalWeights int64
	for _, l := range n.Specs {
		totalWeights += lower(l).M * lower(l).K
	}
	resident := totalWeights <= int64(c.FilterKB)*1024

	bytesPerCycle := c.BandwidthGBps * 1e9 / (c.FreqMHz * 1e6)
	rep := &Report{Config: c}
	var utilWeighted float64
	for _, l := range n.Specs {
		g := lower(l)
		cc, util := computeCycles(g, c)
		sr, sw, dr, dw := traffic(g, c, resident)
		dramCycles := int64(float64(dr+dw)/bytesPerCycle) + 1
		cycles := cc
		if dramCycles > cycles {
			cycles = dramCycles
		}
		lr := LayerReport{
			Name: l.Name, MACs: g.M * g.K * g.N,
			ComputeCycles: cc, DRAMCycles: dramCycles, Cycles: cycles,
			Utilization: util,
			SRAMReads:   sr, SRAMWrites: sw, DRAMReads: dr, DRAMWrites: dw,
		}
		rep.Layers = append(rep.Layers, lr)
		rep.Cycles += cycles
		rep.ComputeCycles += cc
		rep.DRAMCycles += dramCycles
		rep.SRAMReads += sr
		rep.SRAMWrites += sw
		rep.DRAMReads += dr
		rep.DRAMWrites += dw
		utilWeighted += util * float64(lr.MACs)
	}
	rep.RuntimeSec = float64(rep.Cycles) / (c.FreqMHz * 1e6)
	rep.FPS = 1 / rep.RuntimeSec
	rep.Utilization = utilWeighted / float64(n.MACs())
	return rep, nil
}
