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

// Im2colInto unrolls input (InC×InH×InW, flattened row-major) into dst, an
// (InC*K*K) × (OutH*OutW) matrix, so convolution becomes the matrix product
// weights(OutC × InC*K*K) · cols. Every entry of dst is written, padding
// positions with 0, so dst may hold stale values.
func Im2colInto(dst, in *Tensor, d ConvDims) {
	if in.Len() != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2col input len %d, want %d", in.Len(), d.InC*d.InH*d.InW))
	}
	oh, ow := d.OutH(), d.OutW()
	rows := d.InC * d.K * d.K
	if dst.Rank() != 2 || dst.shape[0] != rows || dst.shape[1] != oh*ow {
		panic(fmt.Sprintf("tensor: Im2col dst %v, want [%d %d]", dst.shape, rows, oh*ow))
	}
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				block := dst.data[row*oh*ow:][:oh*ow]
				lo, hi := d.inside(kx, d.InW, ow)
				for oy := 0; oy < oh; oy++ {
					out := block[oy*ow:][:ow]
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH {
						clear(out)
						continue
					}
					inRow := in.data[(c*d.InH+iy)*d.InW:][:d.InW]
					for ox := lo; ox < hi; ox++ {
						out[ox] = inRow[ox*d.Stride+kx-d.Pad]
					}
					zeroOutside(out, lo, hi)
				}
			}
		}
	}
}

// zeroOutside zeroes out[:lo] and out[hi:]. Rows are a few elements wide,
// where a loop beats a call to clear.
func zeroOutside(out []float64, lo, hi int) {
	for i := 0; i < lo; i++ {
		out[i] = 0
	}
	for i := hi; i < len(out); i++ {
		out[i] = 0
	}
}

// inside returns the output positions [lo, hi), out of n, whose input
// position pos*Stride + k - Pad along an axis of the given size lies inside
// the input, so the loops over them need no bounds test.
func (d ConvDims) inside(k, size, n int) (lo, hi int) {
	for lo < n && lo*d.Stride+k-d.Pad < 0 {
		lo++
	}
	hi = n
	for hi > lo && (hi-1)*d.Stride+k-d.Pad >= size {
		hi--
	}
	return lo, hi
}

// Col2imInto sets dst (InC×InH×InW elements) to the scatter of a
// (InC*K*K) × (OutH*OutW) gradient matrix back onto the input layout,
// accumulating overlapping contributions. It is the adjoint of Im2colInto
// and is used by the convolution backward pass.
func Col2imInto(dst, cols *Tensor, d ConvDims) {
	oh, ow := d.OutH(), d.OutW()
	rows := d.InC * d.K * d.K
	ncols := oh * ow
	if cols.Len() != rows*ncols {
		panic(fmt.Sprintf("tensor: Col2im input len %d, want %d", cols.Len(), rows*ncols))
	}
	if dst.Len() != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2im dst len %d, want %d", dst.Len(), d.InC*d.InH*d.InW))
	}
	clear(dst.data)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				lo, hi := d.inside(kx, d.InW, ow)
				for oy := 0; oy < oh; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH {
						continue
					}
					out := dst.data[(c*d.InH+iy)*d.InW:][:d.InW]
					src := cols.data[row*ncols+oy*ow:][:ow]
					for ox := lo; ox < hi; ox++ {
						out[ox*d.Stride+kx-d.Pad] += src[ox]
					}
				}
			}
		}
	}
}
