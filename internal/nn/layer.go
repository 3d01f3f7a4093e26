// Package nn implements the small neural-network substrate used to train and
// run the end-to-end (E2E) UAV autonomy policies: dense and convolutional
// layers with hand-derived backward passes, activations, the policy-gradient
// loss and the Adam optimizer.
//
// Training runs one sample at a time through Forward and Backward. Each
// layer owns its output, input-gradient and scratch buffers, sizes them on
// first use and reuses them on every later call, so a steady-state training
// step allocates nothing. Because Forward writes those buffers, a network
// serves one goroutine at a time; concurrent rollout workers each evaluate
// a frozen network through their own Replica, which shares its parameters.
package nn

import (
	"fmt"
	"math"
	"slices"

	"autopilot/internal/tensor"
)

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; Backward receives dLoss/dOutput and returns dLoss/dInput while
// accumulating parameter gradients.
//
// The returned tensors are buffers the layer owns: Forward's result is valid
// until the layer's next Forward, and Backward's until its next Backward.
// A caller that keeps a result across calls must Clone it. Forward may keep
// a reference to its input for Backward, so the input must not change
// between the two calls.
//
// Replica returns a layer that shares this one's parameters and owns fresh
// buffers, so a frozen layer can run Forward on several goroutines, one
// replica each, with the arithmetic of the original. A replica has no
// gradients and is for Forward only.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*tensor.Tensor
	Grads() []*tensor.Tensor
	Replica() Layer
}

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	W, B   *tensor.Tensor // W: (out, in), B: (out)
	gw, gb *tensor.Tensor
	x      *tensor.Tensor // input of the last Forward
	y, dx  *tensor.Tensor // output and input-gradient buffers
}

// NewDense returns a Dense layer with He-style initialization.
func NewDense(in, out int, g *tensor.RNG) *Dense {
	std := 1.0
	if in > 0 {
		std = sqrtf(2.0 / float64(in))
	}
	return &Dense{
		W:  g.Randn(std, out, in),
		B:  tensor.New(out),
		gw: tensor.New(out, in),
		gb: tensor.New(out),
	}
}

// Forward computes W·x + b for a flattened input.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if in := d.W.Dim(1); x.Len() != in {
		panic(fmt.Sprintf("nn: Dense input len %d, want %d", x.Len(), in))
	}
	d.x = x
	d.y = reuse(d.y, d.W.Dim(0))
	d.affine(d.y.Data(), x.Data())
	return d.y
}

// affine sets y = W·x + b, four output rows per pass over x. Each row keeps
// its own accumulator, started from its bias, and adds W[o][i]·x[i] in
// increasing i, exactly as a loop over one row at a time does.
func (d *Dense) affine(y, x []float64) {
	in := len(x)
	wd, bd := d.W.Data(), d.B.Data()
	o := 0
	for ; o+4 <= len(y); o += 4 {
		r0 := wd[o*in:][:in]
		r1 := wd[(o+1)*in:][:in]
		r2 := wd[(o+2)*in:][:in]
		r3 := wd[(o+3)*in:][:in]
		s0, s1, s2, s3 := bd[o], bd[o+1], bd[o+2], bd[o+3]
		for i, xv := range x {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < len(y); o++ {
		s, row := bd[o], wd[o*in:][:in]
		for i, xv := range x {
			s += row[i] * xv
		}
		y[o] = s
	}
}

// Backward accumulates dW, dB and returns dX. It skips the output rows whose
// gradient is zero and handles the others four per pass over x: each row
// adds g·x into its own gradient row, and dX[i] adds the four rows' terms
// left to right in increasing row order, exactly the additions of a loop
// over one row at a time.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out, in := d.W.Dim(0), d.W.Dim(1)
	if grad.Len() != out {
		panic(fmt.Sprintf("nn: Dense grad len %d, want %d", grad.Len(), out))
	}
	gd, xd := grad.Data(), d.x.Data()[:in]
	gwd, wd := d.gw.Data(), d.W.Data()
	gbd := d.gb.Data()
	for o := 0; o < out; o++ {
		gbd[o] += gd[o]
	}
	d.dx = reuse(d.dx, in)
	dxv := d.dx.Data()[:in]
	clear(dxv)
	var nz [4]int // pending rows with a nonzero gradient
	pending := 0
	for o, g := range gd[:out] {
		if g == 0 {
			continue
		}
		nz[pending] = o
		if pending++; pending < 4 {
			continue
		}
		pending = 0
		o0, o1, o2, o3 := nz[0], nz[1], nz[2], nz[3]
		g0, g1, g2, g3 := gd[o0], gd[o1], gd[o2], gd[o3]
		gw0, w0 := gwd[o0*in:][:in], wd[o0*in:][:in]
		gw1, w1 := gwd[o1*in:][:in], wd[o1*in:][:in]
		gw2, w2 := gwd[o2*in:][:in], wd[o2*in:][:in]
		gw3, w3 := gwd[o3*in:][:in], wd[o3*in:][:in]
		for i, xv := range xd {
			gw0[i] += g0 * xv
			gw1[i] += g1 * xv
			gw2[i] += g2 * xv
			gw3[i] += g3 * xv
			dxv[i] = dxv[i] + g0*w0[i] + g1*w1[i] + g2*w2[i] + g3*w3[i]
		}
	}
	for _, o := range nz[:pending] {
		g := gd[o]
		grow, wrow := gwd[o*in:][:in], wd[o*in:][:in]
		for i, xv := range xd {
			grow[i] += g * xv
			dxv[i] += g * wrow[i]
		}
	}
	return d.dx
}

// Params returns the trainable tensors.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads returns the accumulated gradients, parallel to Params.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gw, d.gb} }

// Replica returns a Dense layer over the same W and B with its own buffers.
func (d *Dense) Replica() Layer { return &Dense{W: d.W, B: d.B} }

// Conv2D is a 2-D convolution over a CHW input, implemented as a gather of
// the input's column matrix followed by a matrix product.
type Conv2D struct {
	Dims   tensor.ConvDims
	W, B   *tensor.Tensor // W: (OutC, InC*K*K), B: (OutC)
	gw, gb *tensor.Tensor

	// plan is the gather index of Dims, built by the first Forward. It is
	// immutable, so a replica made after that shares it.
	plan *tensor.ConvPlan
	xpad []float64      // zero-bordered copy of the last Forward's input
	cols *tensor.Tensor // column matrix of the last Forward's input
	y    *tensor.Tensor // output (OutC, OutH*OutW)
	out  *tensor.Tensor // y viewed as (OutC, OutH, OutW)
	bwd  *convGrad      // backward buffers, made by the first Backward
}

// convGrad holds Conv2D's backward buffers. Networks that are only ever
// evaluated, such as DQN target networks, never allocate them.
type convGrad struct {
	g2    view           // incoming gradient viewed as (OutC, OutH*OutW)
	dw    *tensor.Tensor // g2·colsᵀ before it is added into the gradient
	dcols *tensor.Tensor // Wᵀ·g2, (InC*K*K, OutH*OutW)
	dpad  []float64      // scatter scratch in the zero-bordered input layout
	dx    *tensor.Tensor // input gradient (InC, InH, InW)
}

// NewConv2D returns a Conv2D layer with He-style initialization.
func NewConv2D(d tensor.ConvDims, g *tensor.RNG) *Conv2D {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	fanIn := d.InC * d.K * d.K
	std := sqrtf(2.0 / float64(fanIn))
	return &Conv2D{
		Dims: d,
		W:    g.Randn(std, d.OutC, fanIn),
		B:    tensor.New(d.OutC),
		gw:   tensor.New(d.OutC, fanIn),
		gb:   tensor.New(d.OutC),
	}
}

// Forward convolves a flattened CHW input and returns a (OutC, OutH, OutW) tensor.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	d := c.Dims
	if c.cols == nil {
		if c.plan == nil {
			c.plan = tensor.NewConvPlan(d)
		}
		hw := d.OutH() * d.OutW()
		c.xpad = make([]float64, c.plan.PaddedLen())
		c.cols = tensor.New(d.InC*d.K*d.K, hw)
		c.y = tensor.New(d.OutC, hw)
		c.out = c.y.Reshape(d.OutC, d.OutH(), d.OutW())
	}
	c.plan.Gather(c.cols, x, c.xpad)
	tensor.MatMulInto(c.y, c.W, c.cols)
	c.addBias()
	return c.out
}

// addBias adds each filter's bias to its row of the output.
func (c *Conv2D) addBias() {
	yd := c.y.Data()
	n := c.y.Dim(1)
	for oc, b := range c.B.Data() {
		if b == 0 {
			continue
		}
		row := yd[oc*n : (oc+1)*n]
		for i := range row {
			row[i] += b
		}
	}
}

// Backward accumulates dW, dB and returns the gradient w.r.t. the input.
// The products read their transposed operands in place.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d := c.Dims
	hw := d.OutH() * d.OutW()
	if c.bwd == nil {
		rows := d.InC * d.K * d.K
		c.bwd = &convGrad{
			dw:    tensor.New(d.OutC, rows),
			dcols: tensor.New(rows, hw),
			dpad:  make([]float64, c.plan.PaddedLen()),
			dx:    tensor.New(d.InC, d.InH, d.InW),
		}
	}
	s := c.bwd
	g2 := s.g2.of(grad, d.OutC, hw)
	// dW += g2 · colsᵀ
	tensor.MatMulTransBInto(s.dw, g2, c.cols)
	c.gw.AddInPlace(s.dw)
	// dB += row sums of g2
	gd := g2.Data()
	for oc := 0; oc < d.OutC; oc++ {
		sum := 0.0
		for _, v := range gd[oc*hw : (oc+1)*hw] {
			sum += v
		}
		c.gb.Data()[oc] += sum
	}
	// dX = the scatter of Wᵀ · g2 back onto the input
	tensor.MatMulTransAInto(s.dcols, c.W, g2)
	c.plan.Scatter(s.dx, s.dcols, s.dpad)
	return s.dx
}

// Params returns the trainable tensors.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads returns the accumulated gradients, parallel to Params.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gw, c.gb} }

// Replica returns a Conv2D layer over the same W, B and gather plan with its
// own buffers.
func (c *Conv2D) Replica() Layer { return &Conv2D{Dims: c.Dims, W: c.W, B: c.B, plan: c.plan} }

func sqrtf(x float64) float64 { return math.Sqrt(x) }

// view is a reshaped alias of a caller's tensor, rebuilt only when the
// tensor or the wanted shape changes. Within a network every layer is handed
// the same buffer on each call, so taking the view allocates nothing in the
// steady state.
type view struct{ src, v *tensor.Tensor }

func (w *view) of(src *tensor.Tensor, shape ...int) *tensor.Tensor {
	if w.src != src || !slices.Equal(w.v.Shape(), shape) {
		w.src, w.v = src, src.Reshape(shape...)
	}
	return w.v
}

// reuse returns buf when it already has the given shape, else a new tensor.
func reuse(buf *tensor.Tensor, shape ...int) *tensor.Tensor {
	if buf != nil && slices.Equal(buf.Shape(), shape) {
		return buf
	}
	return tensor.New(shape...)
}
