package nn

import (
	"math"
	"testing"

	"autopilot/internal/tensor"
)

// refMatMul is the product the layers computed before they reused buffers:
// a fresh output, the plain i-k-j loop, one term per pass, zero entries of a
// skipped.
func refMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := tensor.New(m, n)
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := ad[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				od[i*n+j] += av * bd[p*n+j]
			}
		}
	}
	return out
}

func refTranspose(a *tensor.Tensor) *tensor.Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := tensor.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data()[j*m+i] = a.Data()[i*n+j]
		}
	}
	return out
}

func sameBits(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// maskedGrad returns a random gradient with ReLU-like zeros and a -0, the
// values the zero-skip in the product kernels has to get right.
func maskedGrad(g *tensor.RNG, shape ...int) *tensor.Tensor {
	grad := g.Randn(1, shape...)
	gd := grad.Data()
	for i := range gd {
		if i%3 == 1 || i%7 == 0 {
			gd[i] = 0
		}
	}
	gd[len(gd)/2] = math.Copysign(0, -1)
	return grad
}

// refIm2col is the column matrix from its definition: entry
// (row, oy*OutW+ox), with row = (c*K+ky)*K+kx, is input element
// (c, oy*Stride+ky-Pad, ox*Stride+kx-Pad), or 0 in the padding.
func refIm2col(x *tensor.Tensor, d tensor.ConvDims) *tensor.Tensor {
	oh, ow := d.OutH(), d.OutW()
	cols := tensor.New(d.InC*d.K*d.K, oh*ow)
	x = x.Reshape(d.InC, d.InH, d.InW)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							cols.Set(x.At(c, iy, ix), row, oy*ow+ox)
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
func refCol2im(cols *tensor.Tensor, d tensor.ConvDims) *tensor.Tensor {
	oh, ow := d.OutH(), d.OutW()
	x := tensor.New(d.InC, d.InH, d.InW)
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.K; ky++ {
			for kx := 0; kx < d.K; kx++ {
				row := (c*d.K+ky)*d.K + kx
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*d.Stride+ky-d.Pad, ox*d.Stride+kx-d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							x.Set(x.At(c, iy, ix)+cols.At(row, oy*ow+ox), c, iy, ix)
						}
					}
				}
			}
		}
	}
	return x
}

// TestConv2DBackwardMatchesTransposeOracle checks the layer bit for bit
// against the definitions over materialized transposes: y = W·im2col(x) + b,
// dW += g2·colsᵀ and dX = col2im(Wᵀ·g2). It runs two passes per layer, so
// stale buffer contents from the first would show in the second, and runs a
// replica's Forward between them, which must share nothing it writes.
func TestConv2DBackwardMatchesTransposeOracle(t *testing.T) {
	g := tensor.NewRNG(21)
	for _, d := range []tensor.ConvDims{
		{InC: 1, InH: 11, InW: 11, OutC: 4, K: 3, Stride: 2, Pad: 1},
		{InC: 6, InH: 6, InW: 6, OutC: 6, K: 3, Stride: 1, Pad: 1}, // k = 54
		{InC: 8, InH: 6, InW: 6, OutC: 8, K: 3, Stride: 1, Pad: 1}, // k = 72
		{InC: 3, InH: 9, InW: 7, OutC: 5, K: 5, Stride: 2, Pad: 2},
		{InC: 2, InH: 5, InW: 6, OutC: 3, K: 1, Stride: 1, Pad: 0},
	} {
		layer := NewConv2D(d, g)
		copy(layer.gw.Data(), g.Randn(1, layer.gw.Len()).Data())
		copy(layer.B.Data(), g.Randn(1, d.OutC).Data())
		hw := d.OutH() * d.OutW()
		for pass := 0; pass < 2; pass++ {
			x := g.Randn(1, d.InC, d.InH, d.InW)
			cols := refIm2col(x, d)
			wantY := refMatMul(layer.W, cols)
			for oc, b := range layer.B.Data() {
				for j := 0; j < hw; j++ {
					wantY.Data()[oc*hw+j] += b
				}
			}
			y := layer.Forward(x)
			if !sameBits(y.Reshape(d.OutC, hw), wantY) {
				t.Fatalf("%+v pass %d: Forward differs from W·im2col(x) + b", d, pass)
			}
			layer.Replica().Forward(g.Randn(1, d.InC, d.InH, d.InW))

			grad := maskedGrad(g, d.OutC, d.OutH(), d.OutW())
			g2 := grad.Reshape(d.OutC, hw)
			wantDW := layer.gw.Clone()
			wantDW.AddInPlace(refMatMul(g2, refTranspose(cols)))
			wantDX := refCol2im(refMatMul(refTranspose(layer.W), g2), d)

			dx := layer.Backward(grad)
			if !sameBits(layer.gw, wantDW) {
				t.Fatalf("%+v pass %d: dW differs from gw + g2·colsᵀ", d, pass)
			}
			if !sameBits(dx, wantDX) {
				t.Fatalf("%+v pass %d: dX differs from col2im(Wᵀ·g2)", d, pass)
			}
		}
	}
}

// refReLU and refReLUBackward are the branchy loops the layer replaced:
// forward keeps v where v > 0 and writes 0 elsewhere; backward zeroes the
// gradient where the input is <= 0.
func refReLU(x *tensor.Tensor) *tensor.Tensor {
	y := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		if v > 0 {
			y.Data()[i] = v
		} else {
			y.Data()[i] = 0
		}
	}
	return y
}

func refReLUBackward(x, grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(grad.Shape()...)
	for i, g := range grad.Data() {
		if x.Data()[i] <= 0 {
			g = 0
		}
		dx.Data()[i] = g
	}
	return dx
}

// TestReLUMatchesBranchyLoop checks the branch-free ReLU bit for bit
// against the branchy loops on ±0, ±Inf, NaN, subnormals, the extremes of
// the normal range and random data, with gradients that carry the same
// special values, so every pairing of an input class with a gradient class
// occurs.
func TestReLUMatchesBranchyLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{
		0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, // subnormal
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022, 1, -1,
	}
	n := len(special)
	x := tensor.New(n * n)
	grad := tensor.New(n * n)
	for i := range x.Data() {
		x.Data()[i], grad.Data()[i] = special[i/n], special[i%n]
	}
	g := tensor.NewRNG(24)
	rx, rgrad := g.Randn(1, 8, 6, 6), g.Randn(1, 8, 6, 6)
	r := NewReLU()
	for _, c := range []struct {
		name    string
		x, grad *tensor.Tensor
	}{{"special", x, grad}, {"random", rx, rgrad}} {
		if got := r.Forward(c.x); !sameBits(got, refReLU(c.x)) {
			t.Errorf("%s: Forward = %v, want %v", c.name, got.Data(), refReLU(c.x).Data())
		}
		if got := r.Backward(c.grad); !sameBits(got, refReLUBackward(c.x, c.grad)) {
			t.Errorf("%s: Backward = %v, want %v", c.name, got.Data(), refReLUBackward(c.x, c.grad).Data())
		}
	}
}

// refDenseBackward is the one-row loop the layer replaced: each output row
// with a nonzero gradient adds g·x into its gradient row and g·W[o] into dX,
// one row at a time.
func refDenseBackward(w, gw, gb, x, grad *tensor.Tensor) (dx *tensor.Tensor) {
	out, in := w.Dim(0), w.Dim(1)
	dx = tensor.New(in)
	for o := 0; o < out; o++ {
		gb.Data()[o] += grad.Data()[o]
	}
	for o := 0; o < out; o++ {
		g := grad.Data()[o]
		if g == 0 {
			continue
		}
		for i := 0; i < in; i++ {
			gw.Data()[o*in+i] += g * x.Data()[i]
			dx.Data()[i] += g * w.Data()[o*in+i]
		}
	}
	return dx
}

// TestDenseBackwardMatchesOneRowLoop checks the four-rows-per-pass backward
// bit for bit against the one-row loop, for output widths that leave every
// remainder mod 4 and with a zero gradient row (+0 or -0) at each position
// of a group of four, with the gradient buffers holding earlier sums.
func TestDenseBackwardMatchesOneRowLoop(t *testing.T) {
	g := tensor.NewRNG(25)
	const in = 37
	for _, out := range []int{1, 3, 4, 7, 8, 13, 25} {
		for zero := -1; zero < 4; zero++ {
			d := NewDense(in, out, g)
			copy(d.gw.Data(), g.Randn(1, out, in).Data())
			copy(d.gb.Data(), g.Randn(1, out).Data())
			x := g.Randn(1, in)
			grad := g.Randn(1, out)
			for o := range grad.Data() {
				switch {
				case o%4 == zero:
					grad.Data()[o] = 0
				case o%5 == zero+1:
					grad.Data()[o] = math.Copysign(0, -1)
				}
			}
			wantGW, wantGB := d.gw.Clone(), d.gb.Clone()
			wantDX := refDenseBackward(d.W, wantGW, wantGB, x, grad)
			d.Forward(x)
			dx := d.Backward(grad)
			if !sameBits(dx, wantDX) || !sameBits(d.gw, wantGW) || !sameBits(d.gb, wantGB) {
				t.Fatalf("out=%d zero row at %d mod 4: Backward differs from the one-row loop", out, zero)
			}
		}
	}
}

// TestDenseBlockedRowsMatchOneRowLoop checks the four-rows-per-pass forward
// against one accumulator per row started from the bias, bit for bit, for
// output widths that leave every remainder mod 4.
func TestDenseBlockedRowsMatchOneRowLoop(t *testing.T) {
	g := tensor.NewRNG(22)
	const in = 37
	for _, out := range []int{1, 3, 8, 25, 64} {
		d := NewDense(in, out, g)
		copy(d.B.Data(), g.Randn(1, out).Data())
		x := g.Randn(1, in)
		want := tensor.New(out)
		for o := 0; o < out; o++ {
			s := d.B.Data()[o]
			for i := 0; i < in; i++ {
				s += d.W.Data()[o*in+i] * x.Data()[i]
			}
			want.Data()[o] = s
		}
		if got := d.Forward(x); !sameBits(got, want) {
			t.Fatalf("out=%d: Forward = %v, want %v", out, got.Data(), want.Data())
		}
		if got := d.Replica().Forward(x); !sameBits(got, want) {
			t.Fatalf("out=%d: replica Forward = %v, want %v", out, got.Data(), want.Data())
		}
	}
}

// TestReusedBuffersCarryNoState runs each layer on one sample and then on
// another, and checks that the second pass returns, bit for bit, what a
// fresh layer returns for the second sample alone.
func TestReusedBuffersCarryNoState(t *testing.T) {
	conv := tensor.ConvDims{InC: 2, InH: 7, InW: 7, OutC: 3, K: 3, Stride: 2, Pad: 1}
	for _, c := range []struct {
		name    string
		make    func() Layer
		in, out []int
	}{
		{"Conv2D", func() Layer { return NewConv2D(conv, tensor.NewRNG(31)) }, []int{2, 7, 7}, []int{3, 4, 4}},
		{"Dense", func() Layer { return NewDense(9, 5, tensor.NewRNG(31)) }, []int{9}, []int{5}},
		{"ReLU", func() Layer { return NewReLU() }, []int{4, 3}, []int{4, 3}},
		{"Flatten", func() Layer { return NewFlatten() }, []int{2, 3}, []int{6}},
	} {
		g := tensor.NewRNG(32)
		x1, g1 := g.Randn(1, c.in...), maskedGrad(g, c.out...)
		x2, g2 := g.Randn(1, c.in...), maskedGrad(g, c.out...)
		reused, fresh := c.make(), c.make()
		reused.Forward(x1)
		reused.Backward(g1)
		y := reused.Forward(x2).Clone()
		dx := reused.Backward(g2)
		if want := fresh.Forward(x2); !sameBits(y, want) {
			t.Errorf("%s: second Forward differs from a fresh layer's", c.name)
		}
		if want := fresh.Backward(g2); !sameBits(dx, want) {
			t.Errorf("%s: second Backward differs from a fresh layer's", c.name)
		}
	}
}

// TestLayerStepAllocatesNothing pins the buffer reuse: once a layer has
// seen one sample, a Forward plus Backward allocates nothing.
func TestLayerStepAllocatesNothing(t *testing.T) {
	g := tensor.NewRNG(23)
	conv := NewConv2D(tensor.ConvDims{InC: 6, InH: 6, InW: 6, OutC: 8, K: 3, Stride: 1, Pad: 1}, g)
	for _, c := range []struct {
		name  string
		layer Layer
		x     *tensor.Tensor
		grad  *tensor.Tensor
	}{
		{"Conv2D", conv, g.Randn(1, 6, 6, 6), maskedGrad(g, 8, 6, 6)},
		{"Dense", NewDense(40, 24, g), g.Randn(1, 40), maskedGrad(g, 24)},
		{"ReLU", NewReLU(), g.Randn(1, 8, 6, 6), g.Randn(1, 8, 6, 6)},
	} {
		step := func() {
			c.layer.Forward(c.x)
			c.layer.Backward(c.grad)
		}
		step()
		if n := testing.AllocsPerRun(20, step); n != 0 {
			t.Errorf("%s: Forward+Backward allocates %.1f times per sample, want 0", c.name, n)
		}
	}
}
