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

// TestConv2DBackwardMatchesTransposeOracle checks the buffered backward
// pass bit for bit against materialized transposes: dW += g2·colsᵀ and
// dX = col2im(Wᵀ·g2). It runs two backward passes per layer, so stale
// buffer contents from the first would show in the second.
func TestConv2DBackwardMatchesTransposeOracle(t *testing.T) {
	g := tensor.NewRNG(21)
	for _, d := range []tensor.ConvDims{
		{InC: 1, InH: 11, InW: 11, OutC: 4, K: 3, Stride: 2, Pad: 1},
		{InC: 6, InH: 6, InW: 6, OutC: 6, K: 3, Stride: 1, Pad: 1}, // k = 54
		{InC: 8, InH: 6, InW: 6, OutC: 8, K: 3, Stride: 1, Pad: 1}, // k = 72
		{InC: 3, InH: 9, InW: 7, OutC: 5, K: 5, Stride: 2, Pad: 2},
	} {
		layer := NewConv2D(d, g)
		copy(layer.gw.Data(), g.Randn(1, layer.gw.Len()).Data())
		hw := d.OutH() * d.OutW()
		for pass := 0; pass < 2; pass++ {
			x := g.Randn(1, d.InC, d.InH, d.InW)
			layer.Forward(x)
			grad := maskedGrad(g, d.OutC, d.OutH(), d.OutW())

			cols := tensor.New(d.InC*d.K*d.K, hw)
			tensor.Im2colInto(cols, x, d)
			g2 := grad.Reshape(d.OutC, hw)
			wantDW := layer.gw.Clone()
			wantDW.AddInPlace(refMatMul(g2, refTranspose(cols)))
			wantDX := tensor.New(d.InC, d.InH, d.InW)
			tensor.Col2imInto(wantDX, refMatMul(refTranspose(layer.W), g2), d)

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
		{"Tanh", func() Layer { return NewTanh() }, []int{6}, []int{6}},
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
