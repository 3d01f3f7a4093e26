package tensor

import "fmt"

// ConvDims describes the geometry of a 2-D convolution with square kernels.
type ConvDims struct {
	InC, InH, InW int // input channels, height, width
	OutC          int // output channels (number of filters)
	K             int // kernel size (K×K)
	Stride        int
	Pad           int
}

// OutH returns the output height for the convolution geometry.
func (d ConvDims) OutH() int { return (d.InH+2*d.Pad-d.K)/d.Stride + 1 }

// OutW returns the output width for the convolution geometry.
func (d ConvDims) OutW() int { return (d.InW+2*d.Pad-d.K)/d.Stride + 1 }

// Validate reports whether the geometry produces a non-empty output.
func (d ConvDims) Validate() error {
	if d.InC <= 0 || d.InH <= 0 || d.InW <= 0 || d.OutC <= 0 || d.K <= 0 || d.Stride <= 0 || d.Pad < 0 {
		return fmt.Errorf("tensor: invalid conv dims %+v", d)
	}
	if d.OutH() <= 0 || d.OutW() <= 0 {
		return fmt.Errorf("tensor: conv dims %+v produce empty output %dx%d", d, d.OutH(), d.OutW())
	}
	return nil
}

// MACs returns the number of multiply-accumulate operations for one inference
// of the convolution. This is what the systolic-array simulator and the
// policy complexity analysis consume.
func (d ConvDims) MACs() int64 {
	return int64(d.OutC) * int64(d.OutH()) * int64(d.OutW()) * int64(d.InC) * int64(d.K) * int64(d.K)
}

// ConvPlan is the im2col gather index of one convolution geometry. The
// column matrix of a convolution is (InC*K*K) × (OutH*OutW), so that the
// convolution is the product weights(OutC × InC*K*K) · cols: entry
// (row, oy*OutW+ox), with row = (c*K+ky)*K+kx, holds input element
// (c, oy*Stride+ky-Pad, ox*Stride+kx-Pad), or 0 where that lies in the
// padding. The plan maps each entry to an element of the input copied into
// a zero-bordered (InC, InH+2*Pad, InW+2*Pad) buffer, so the gather and its
// adjoint scatter are each one loop with no bounds tests.
//
// A plan is immutable and may be shared by any number of goroutines. The
// padded buffers it works through belong to the caller.
type ConvPlan struct {
	d   ConvDims
	idx []int32 // column-matrix entry -> index into the padded input
}

// NewConvPlan builds the gather index of a valid geometry.
func NewConvPlan(d ConvDims) *ConvPlan {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	oh, ow := d.OutH(), d.OutW()
	ph, pw := d.InH+2*d.Pad, d.InW+2*d.Pad
	idx := make([]int32, 0, d.InC*d.K*d.K*oh*ow)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						idx = append(idx, int32((c*ph+oy*d.Stride+ky)*pw+ox*d.Stride+kx))
					}
				}
			}
		}
	}
	return &ConvPlan{d: d, idx: idx}
}

// PaddedLen returns the length of the zero-bordered input buffers that
// Gather and Scatter work through.
func (p *ConvPlan) PaddedLen() int {
	return p.d.InC * (p.d.InH + 2*p.d.Pad) * (p.d.InW + 2*p.d.Pad)
}

// Gather sets cols, an (InC*K*K) × (OutH*OutW) matrix, to the column matrix
// of in (InC×InH×InW elements). It copies in into the interior of padded,
// a PaddedLen buffer whose border must be zero. Gather never writes the
// border, so a buffer that starts zeroed and is used only by Gather stays
// valid. Every entry of cols is written, so cols may hold stale values.
func (p *ConvPlan) Gather(cols, in *Tensor, padded []float64) {
	if in.Len() != p.d.InC*p.d.InH*p.d.InW {
		panic(fmt.Sprintf("tensor: ConvPlan.Gather input len %d, want %d", in.Len(), p.d.InC*p.d.InH*p.d.InW))
	}
	if cols.Len() != len(p.idx) {
		panic(fmt.Sprintf("tensor: ConvPlan.Gather cols len %d, want %d", cols.Len(), len(p.idx)))
	}
	padded = padded[:p.PaddedLen()]
	p.eachRow(func(inner, outer int) { copy(padded[outer:][:p.d.InW], in.data[inner:][:p.d.InW]) })
	cd := cols.data[:len(p.idx)]
	for i, j := range p.idx {
		cd[i] = padded[j]
	}
}

// Scatter sets dst (InC×InH×InW elements) to the adjoint of Gather applied
// to dcols, an (InC*K*K) × (OutH*OutW) matrix: each input element is the
// sum of the dcols entries gathered from it, added in increasing entry
// order (by row, then output row, then output column) to an accumulator
// that starts at +0. padded is PaddedLen scratch that Scatter clears first;
// the padding entries' terms land in its border and are dropped.
func (p *ConvPlan) Scatter(dst, dcols *Tensor, padded []float64) {
	if dcols.Len() != len(p.idx) {
		panic(fmt.Sprintf("tensor: ConvPlan.Scatter input len %d, want %d", dcols.Len(), len(p.idx)))
	}
	if dst.Len() != p.d.InC*p.d.InH*p.d.InW {
		panic(fmt.Sprintf("tensor: ConvPlan.Scatter dst len %d, want %d", dst.Len(), p.d.InC*p.d.InH*p.d.InW))
	}
	padded = padded[:p.PaddedLen()]
	clear(padded)
	for i, v := range dcols.data[:len(p.idx)] {
		padded[p.idx[i]] += v
	}
	p.eachRow(func(inner, outer int) { copy(dst.data[inner:][:p.d.InW], padded[outer:][:p.d.InW]) })
}

// eachRow calls f with the offset of each input row in the unpadded layout
// and in the interior of the padded one.
func (p *ConvPlan) eachRow(f func(inner, outer int)) {
	d := p.d
	ph, pw := d.InH+2*d.Pad, d.InW+2*d.Pad
	for c := 0; c < d.InC; c++ {
		for y := 0; y < d.InH; y++ {
			f((c*d.InH+y)*d.InW, (c*ph+y+d.Pad)*pw+d.Pad)
		}
	}
}
