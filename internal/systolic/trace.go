package systolic

import (
	"fmt"

	"autopilot/internal/policy"
)

// Access is one scratchpad/DRAM access event in a cycle-level trace — the
// output format of SCALE-Sim's trace mode, which the paper's power flow
// feeds to CACTI and the Micron DRAM model.
type Access struct {
	Cycle int64
	Unit  AccessUnit
	Addr  int64
	Write bool
}

// AccessUnit identifies the memory a trace event touches.
type AccessUnit int

// Trace units.
const (
	IfmapSRAM AccessUnit = iota
	FilterSRAM
	OfmapSRAM
)

// String names the unit.
func (u AccessUnit) String() string {
	switch u {
	case IfmapSRAM:
		return "ifmap"
	case FilterSRAM:
		return "filter"
	case OfmapSRAM:
		return "ofmap"
	default:
		return fmt.Sprintf("AccessUnit(%d)", int(u))
	}
}

// TraceStats aggregates a generated trace.
type TraceStats struct {
	Cycles      int64
	MACs        int64
	IfmapReads  int64
	FilterReads int64
	OfmapWrites int64
}

// TraceLayer generates the cycle-level output-stationary schedule for one
// layer and streams every scratchpad access to emit (which may be nil when
// only the stats are wanted). The schedule matches the analytical model's
// OS timing: tiles of Rows×Cols outputs, each streaming K operand pairs
// plus array fill/drain.
//
// Trace generation is O(MACs); guard calls with a size check for large
// layers (the analytical mode exists precisely because full traces of a
// 40M-parameter dense layer are impractical).
func TraceLayer(l policy.LayerSpec, c Config, emit func(Access)) (TraceStats, error) {
	if err := c.Validate(); err != nil {
		return TraceStats{}, err
	}
	if c.Dataflow != OutputStationary {
		return TraceStats{}, fmt.Errorf("systolic: trace mode implements the output-stationary schedule only, got %v", c.Dataflow)
	}
	g := lower(l)
	var st TraceStats
	rows, cols := int64(c.Rows), int64(c.Cols)
	cycle := int64(0)
	for tn := int64(0); tn < g.N; tn += rows {
		nEnd := min(tn+rows, g.N)
		for tm := int64(0); tm < g.M; tm += cols {
			mEnd := min(tm+cols, g.M)
			// stream K operand pairs through the tile
			for k := int64(0); k < g.K; k++ {
				// one ifmap byte per active row, one filter byte per active column
				for n := tn; n < nEnd; n++ {
					if emit != nil {
						emit(Access{Cycle: cycle, Unit: IfmapSRAM, Addr: k*g.N + n})
					}
					st.IfmapReads++
				}
				for m := tm; m < mEnd; m++ {
					if emit != nil {
						emit(Access{Cycle: cycle, Unit: FilterSRAM, Addr: m*g.K + k})
					}
					st.FilterReads++
				}
				st.MACs += (nEnd - tn) * (mEnd - tm)
				cycle++
			}
			// drain: every output leaves through the ofmap scratchpad
			for n := tn; n < nEnd; n++ {
				for m := tm; m < mEnd; m++ {
					if emit != nil {
						emit(Access{Cycle: cycle, Unit: OfmapSRAM, Addr: m*g.N + n, Write: true})
					}
					st.OfmapWrites++
				}
			}
			// fill/drain latency of the systolic diagonals
			cycle += rows + cols - 2
		}
	}
	st.Cycles = cycle
	return st, nil
}
