package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvDimsOutput(t *testing.T) {
	d := ConvDims{InC: 3, InH: 32, InW: 32, OutC: 8, K: 3, Stride: 2, Pad: 1}
	if d.OutH() != 16 || d.OutW() != 16 {
		t.Fatalf("out = %dx%d, want 16x16", d.OutH(), d.OutW())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestConvDimsValidateErrors(t *testing.T) {
	cases := []ConvDims{
		{InC: 0, InH: 8, InW: 8, OutC: 1, K: 3, Stride: 1},
		{InC: 1, InH: 2, InW: 2, OutC: 1, K: 5, Stride: 1}, // kernel larger than input
		{InC: 1, InH: 8, InW: 8, OutC: 1, K: 3, Stride: 0},
		{InC: 1, InH: 8, InW: 8, OutC: 1, K: 3, Stride: 1, Pad: -1},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected error", i, d)
		}
	}
}

func TestConvDimsMACs(t *testing.T) {
	d := ConvDims{InC: 2, InH: 4, InW: 4, OutC: 3, K: 3, Stride: 1, Pad: 1}
	// 3 out channels * 4*4 output * 2 in channels * 9 kernel = 864
	if got := d.MACs(); got != 864 {
		t.Fatalf("MACs = %d, want 864", got)
	}
}

// Reference direct convolution for cross-checking im2col+matmul.
func convDirect(in, w *Tensor, d ConvDims) *Tensor {
	oh, ow := d.OutH(), d.OutW()
	out := New(d.OutC, oh, ow)
	for oc := 0; oc < d.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				sum := 0.0
				for ic := 0; ic < d.InC; ic++ {
					for ky := 0; ky < d.K; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= d.InH {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= d.InW {
								continue
							}
							sum += in.At(ic, iy, ix) * w.At(oc, ic, ky, kx)
						}
					}
				}
				out.Set(sum, oc, oy, ox)
			}
		}
	}
	return out
}

// refIm2col is the column matrix from its definition: entry
// (row, oy*OutW+ox), with row = (c*K+ky)*K+kx, is input element
// (c, oy*Stride+ky-Pad, ox*Stride+kx-Pad), or 0 in the padding.
func refIm2col(in *Tensor, d ConvDims) *Tensor {
	oh, ow := d.OutH(), d.OutW()
	cols := New(d.InC*d.K*d.K, oh*ow)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							cols.Set(in.At(c, iy, ix), row, oy*ow+ox)
						}
					}
				}
			}
		}
	}
	return cols
}

// refCol2im is the adjoint of refIm2col from its definition: each input
// element starts at +0 and adds the column entries read from it, by row,
// then output row, then output column.
func refCol2im(cols *Tensor, d ConvDims) *Tensor {
	oh, ow := d.OutH(), d.OutW()
	in := New(d.InC, d.InH, d.InW)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							in.Set(in.At(c, iy, ix)+cols.At(row, oy*ow+ox), c, iy, ix)
						}
					}
				}
			}
		}
	}
	return in
}

// gather runs a fresh plan's Gather with fresh buffers.
func gather(in *Tensor, d ConvDims) *Tensor {
	p := NewConvPlan(d)
	cols := New(d.InC*d.K*d.K, d.OutH()*d.OutW())
	p.Gather(cols, in, make([]float64, p.PaddedLen()))
	return cols
}

// TestConvPlanMatchesDefinition checks Gather and Scatter bit for bit
// against refIm2col and refCol2im for strides 1 and 2, padding 0-2, kernel
// sizes 1, 3 and 5 and 1-8 input channels. Each plan runs three samples
// through the same buffers; the outputs start out stale and the scatter
// scratch NaN, so state carried between calls would show. The scattered
// columns hold zeros and a -0, as a masked gradient does.
func TestConvPlanMatchesDefinition(t *testing.T) {
	g := NewRNG(15)
	for _, stride := range []int{1, 2} {
		for pad := 0; pad <= 2; pad++ {
			for _, k := range []int{1, 3, 5} {
				for inC := 1; inC <= 8; inC++ {
					d := ConvDims{InC: inC, InH: 7 + inC%3, InW: 9 - inC%2, OutC: 2, K: k, Stride: stride, Pad: pad}
					if d.Validate() != nil {
						continue
					}
					p := NewConvPlan(d)
					rows, hw := inC*k*k, d.OutH()*d.OutW()
					xpad, dpad := make([]float64, p.PaddedLen()), make([]float64, p.PaddedLen())
					for i := range dpad {
						dpad[i] = math.NaN()
					}
					cols, dx := New(rows, hw), New(inC, d.InH, d.InW)
					cols.Fill(1e6)
					dx.Fill(1e6)
					for sample := 0; sample < 3; sample++ {
						x := g.Randn(1, inC, d.InH, d.InW)
						p.Gather(cols, x, xpad)
						if !bitsEqual(cols, refIm2col(x, d)) {
							t.Fatalf("%+v sample %d: Gather differs from the definition", d, sample)
						}
						dcols := g.Randn(1, rows, hw)
						for i := range dcols.Data() {
							if i%3 == 1 {
								dcols.Data()[i] = 0
							}
						}
						dcols.Data()[hw/2] = math.Copysign(0, -1)
						p.Scatter(dx, dcols, dpad)
						if !bitsEqual(dx, refCol2im(dcols, d)) {
							t.Fatalf("%+v sample %d: Scatter differs from the definition", d, sample)
						}
					}
				}
			}
		}
	}
}

func TestIm2colMatchesDirectConv(t *testing.T) {
	g := NewRNG(11)
	geoms := []ConvDims{
		{InC: 1, InH: 5, InW: 5, OutC: 2, K: 3, Stride: 1, Pad: 0},
		{InC: 3, InH: 8, InW: 8, OutC: 4, K: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, K: 5, Stride: 2, Pad: 2},
		{InC: 4, InH: 6, InW: 6, OutC: 1, K: 1, Stride: 1, Pad: 0},
		{InC: 1, InH: 4, InW: 2, OutC: 2, K: 3, Stride: 3, Pad: 2}, // padding wider than the image
		{InC: 2, InH: 11, InW: 11, OutC: 3, K: 3, Stride: 2, Pad: 1},
	}
	for _, d := range geoms {
		in := g.Randn(1, d.InC, d.InH, d.InW)
		w := g.Randn(1, d.OutC, d.InC, d.K, d.K)
		wm := w.Reshape(d.OutC, d.InC*d.K*d.K)
		got := matMul(wm, gather(in, d)).Reshape(d.OutC, d.OutH(), d.OutW())
		want := convDirect(in, w, d)
		if !Equal(got, want, 1e-9) {
			t.Fatalf("geom %+v: gathered conv != direct conv", d)
		}
	}
}

func TestCol2imAdjointProperty(t *testing.T) {
	// <Gather(x), y> == <x, Scatter(y)> for all x, y — the defining property
	// of an adjoint pair, which the conv backward pass relies on.
	g := NewRNG(12)
	geoms := []ConvDims{
		{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 4, InW: 2, OutC: 2, K: 3, Stride: 3, Pad: 2},
		{InC: 3, InH: 5, InW: 7, OutC: 1, K: 5, Stride: 1, Pad: 2},
	}
	f := func(seed uint8) bool {
		d := geoms[int(seed)%len(geoms)]
		p := NewConvPlan(d)
		x := g.Randn(1, d.InC, d.InH, d.InW)
		y := g.Randn(1, d.InC*d.K*d.K, d.OutH()*d.OutW())
		cols := gather(x, d)
		back := New(d.InC, d.InH, d.InW)
		back.Fill(1e6) // Scatter must overwrite, not accumulate into, dst
		p.Scatter(back, y, make([]float64, p.PaddedLen()))
		lhs, rhs := New(1, 1), New(1, 1)
		MatMulInto(lhs, cols.Reshape(1, y.Len()), y.Reshape(y.Len(), 1))
		MatMulInto(rhs, x.Reshape(1, x.Len()), back.Reshape(x.Len(), 1))
		return absf(lhs.At(0, 0)-rhs.At(0, 0)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIm2colWrongLenPanics(t *testing.T) {
	d := ConvDims{InC: 1, InH: 4, InW: 4, OutC: 1, K: 3, Stride: 1, Pad: 0}
	p := NewConvPlan(d)
	for name, f := range map[string]func(){
		"input": func() { p.Gather(New(9, 4), New(5), make([]float64, p.PaddedLen())) },
		"cols":  func() { p.Gather(New(9, 3), New(1, 4, 4), make([]float64, p.PaddedLen())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gather with a wrong %s length: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCol2imWrongLenPanics(t *testing.T) {
	d := ConvDims{InC: 1, InH: 4, InW: 4, OutC: 1, K: 3, Stride: 1, Pad: 0}
	p := NewConvPlan(d)
	for name, f := range map[string]func(){
		"input": func() { p.Scatter(New(1, 4, 4), New(5), make([]float64, p.PaddedLen())) },
		"dst":   func() { p.Scatter(New(1, 4, 3), New(9, 4), make([]float64, p.PaddedLen())) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scatter with a wrong %s length: expected panic", name)
				}
			}()
			f()
		}()
	}
}
