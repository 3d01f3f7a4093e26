package tensor

import (
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
		cols := New(d.InC*d.K*d.K, d.OutH()*d.OutW())
		cols.Fill(1e6) // stale contents must all be overwritten
		Im2colInto(cols, in, d)
		wm := w.Reshape(d.OutC, d.InC*d.K*d.K)
		got := matMul(wm, cols).Reshape(d.OutC, d.OutH(), d.OutW())
		want := convDirect(in, w, d)
		if !Equal(got, want, 1e-9) {
			t.Fatalf("geom %+v: im2col conv != direct conv", d)
		}
	}
}

func TestCol2imAdjointProperty(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> for all x, y — the defining property
	// of an adjoint pair, which the conv backward pass relies on.
	g := NewRNG(12)
	geoms := []ConvDims{
		{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 2, Pad: 1},
		{InC: 1, InH: 4, InW: 2, OutC: 2, K: 3, Stride: 3, Pad: 2},
		{InC: 3, InH: 5, InW: 7, OutC: 1, K: 5, Stride: 1, Pad: 2},
	}
	f := func(seed uint8) bool {
		d := geoms[int(seed)%len(geoms)]
		x := g.Randn(1, d.InC, d.InH, d.InW)
		y := g.Randn(1, d.InC*d.K*d.K, d.OutH()*d.OutW())
		cols := New(d.InC*d.K*d.K, d.OutH()*d.OutW())
		Im2colInto(cols, x, d)
		back := New(d.InC, d.InH, d.InW)
		back.Fill(1e6) // Col2imInto must overwrite, not accumulate into, dst
		Col2imInto(back, y, d)
		lhs := Dot(cols.Reshape(y.Len()), y.Reshape(y.Len()))
		rhs := Dot(x.Reshape(x.Len()), back.Reshape(x.Len()))
		return absf(lhs-rhs) < 1e-9
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
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Im2colInto(New(9, 4), New(5), d)
}

func TestCol2imWrongLenPanics(t *testing.T) {
	d := ConvDims{InC: 1, InH: 4, InW: 4, OutC: 1, K: 3, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Col2imInto(New(1, 4, 4), New(5), d)
}
