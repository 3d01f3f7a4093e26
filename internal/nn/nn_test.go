package nn

import (
	"math"
	"testing"

	"autopilot/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	g := tensor.NewRNG(1)
	d := NewDense(2, 2, g)
	copy(d.W.Data(), []float64{1, 2, 3, 4})
	copy(d.B.Data(), []float64{0.5, -0.5})
	y := d.Forward(tensor.FromSlice([]float64{1, 1}, 2))
	want := tensor.FromSlice([]float64{3.5, 6.5}, 2)
	if !tensor.Equal(y, want, 1e-12) {
		t.Fatalf("Forward = %v, want %v", y, want)
	}
}

func TestDenseDims(t *testing.T) {
	d := NewDense(7, 3, tensor.NewRNG(1))
	if d.W.Dim(0) != 3 || d.W.Dim(1) != 7 || d.B.Len() != 3 {
		t.Fatalf("W %v, B %v; want a 3x7 layer", d.W.Shape(), d.B.Shape())
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	d := NewDense(3, 2, tensor.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward(tensor.New(4))
}

// numericalGrad computes dLoss/dTheta for a scalar loss via central differences.
func numericalGrad(theta *tensor.Tensor, loss func() float64) *tensor.Tensor {
	const h = 1e-5
	g := tensor.New(theta.Shape()...)
	td, gd := theta.Data(), g.Data()
	for i := range td {
		orig := td[i]
		td[i] = orig + h
		lp := loss()
		td[i] = orig - h
		lm := loss()
		td[i] = orig
		gd[i] = (lp - lm) / (2 * h)
	}
	return g
}

// checkLayerGrads verifies all parameter gradients and the input gradient of
// a layer against finite differences, using 0.5·||y||² as the loss.
func checkLayerGrads(t *testing.T, layer Layer, x *tensor.Tensor) {
	t.Helper()
	loss := func() float64 {
		y := layer.Forward(x)
		s := 0.0
		for _, v := range y.Data() {
			s += 0.5 * v * v
		}
		return s
	}
	// analytic
	y := layer.Forward(x)
	for _, g := range layer.Grads() {
		g.Zero()
	}
	dx := layer.Backward(y.Clone())
	for pi, p := range layer.Params() {
		num := numericalGrad(p, loss)
		ana := layer.Grads()[pi]
		if !tensor.Equal(num, ana, 1e-4) {
			t.Fatalf("param %d gradient mismatch:\n analytic %v\n numeric  %v", pi, ana, num)
		}
	}
	numX := numericalGrad(x, loss)
	if !tensor.Equal(numX.Reshape(dx.Len()), dx.Reshape(dx.Len()), 1e-4) {
		t.Fatalf("input gradient mismatch:\n analytic %v\n numeric  %v", dx, numX)
	}
}

func TestDenseGradCheck(t *testing.T) {
	g := tensor.NewRNG(2)
	layer := NewDense(4, 3, g)
	checkLayerGrads(t, layer, g.Randn(1, 4))
}

func TestConv2DGradCheck(t *testing.T) {
	g := tensor.NewRNG(3)
	d := tensor.ConvDims{InC: 2, InH: 5, InW: 5, OutC: 3, K: 3, Stride: 2, Pad: 1}
	layer := NewConv2D(d, g)
	checkLayerGrads(t, layer, g.Randn(1, 2, 5, 5))
}

func TestReLUGradCheck(t *testing.T) {
	g := tensor.NewRNG(4)
	// keep inputs away from 0 where ReLU is non-differentiable
	x := g.Randn(1, 6)
	for i, v := range x.Data() {
		if math.Abs(v) < 0.1 {
			x.Data()[i] = 0.5
		}
	}
	checkLayerGrads(t, NewReLU(), x)
}

func TestSequentialGradCheck(t *testing.T) {
	g := tensor.NewRNG(6)
	net := NewSequential(
		NewConv2D(tensor.ConvDims{InC: 1, InH: 6, InW: 6, OutC: 2, K: 3, Stride: 1, Pad: 0}, g),
		NewReLU(),
		NewFlatten(),
		NewDense(2*4*4, 3, g),
	)
	x := g.Randn(1, 1, 6, 6)
	loss := func() float64 {
		y := net.Forward(x)
		s := 0.0
		for _, v := range y.Data() {
			s += 0.5 * v * v
		}
		return s
	}
	y := net.Forward(x)
	net.Backward(y.Clone())
	params, grads := net.Params(), net.Grads()
	for pi, p := range params {
		num := numericalGrad(p, loss)
		if !tensor.Equal(num, grads[pi], 1e-4) {
			t.Fatalf("sequential param %d gradient mismatch", pi)
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	g := tensor.NewRNG(7)
	for i := 0; i < 10; i++ {
		p := Softmax(g.Randn(3, 5))
		if math.Abs(p.Sum()-1) > 1e-12 {
			t.Fatalf("softmax sums to %g", p.Sum())
		}
		for _, v := range p.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("softmax component %g outside [0,1]", v)
			}
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3}, 3)
	shifted := tensor.Apply(x, func(v float64) float64 { return v + 1000 })
	if !tensor.Equal(Softmax(x), Softmax(shifted), 1e-9) {
		t.Fatal("softmax must be shift invariant")
	}
}

// At unit advantage the policy-gradient loss is the cross-entropy of the
// taken action, so its gradient must match finite differences of that loss.
func TestCrossEntropyGradCheck(t *testing.T) {
	g := tensor.NewRNG(8)
	logits := g.Randn(1, 4)
	class := 2
	loss := func() float64 {
		l, _ := PolicyGradientLoss(logits, class, 1)
		return l
	}
	_, ana := PolicyGradientLoss(logits, class, 1)
	num := numericalGrad(logits, loss)
	if !tensor.Equal(num, ana, 1e-5) {
		t.Fatalf("CE gradient mismatch: ana %v num %v", ana, num)
	}
}

func TestPolicyGradientLossSign(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0}, 3)
	_, gPos := PolicyGradientLoss(logits, 1, 1.0)
	// positive advantage should push probability of action 1 up: grad[1] < 0
	if gPos.Data()[1] >= 0 {
		t.Fatalf("grad[action] = %g, want negative for positive advantage", gPos.Data()[1])
	}
	_, gNeg := PolicyGradientLoss(logits, 1, -1.0)
	if gNeg.Data()[1] <= 0 {
		t.Fatalf("grad[action] = %g, want positive for negative advantage", gNeg.Data()[1])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	w := tensor.FromSlice([]float64{-5}, 1)
	grad := tensor.New(1)
	opt := NewAdam(0.1)
	for i := 0; i < 2000; i++ {
		grad.Data()[0] = w.Data()[0] - 3
		opt.Step([]*tensor.Tensor{w}, []*tensor.Tensor{grad})
	}
	if math.Abs(w.Data()[0]-3) > 1e-3 {
		t.Fatalf("w = %g, want 3", w.Data()[0])
	}
}

func TestClipGrads(t *testing.T) {
	g := tensor.FromSlice([]float64{3, 4}, 2) // norm 5
	ClipGrads([]*tensor.Tensor{g}, 1)
	if math.Abs(g.Norm2()-1) > 1e-12 {
		t.Fatalf("clipped norm = %g, want 1", g.Norm2())
	}
	h := tensor.FromSlice([]float64{0.3, 0.4}, 2)
	ClipGrads([]*tensor.Tensor{h}, 1)
	if !tensor.Equal(h, tensor.FromSlice([]float64{0.3, 0.4}, 2), 0) {
		t.Fatal("grads under the limit must be untouched")
	}
}

func TestTrainingReducesLossOnRegression(t *testing.T) {
	// learn y = 2x1 - x2 with a small MLP
	g := tensor.NewRNG(11)
	net := NewSequential(NewDense(2, 8, g), NewReLU(), NewDense(8, 1, g))
	opt := NewAdam(0.01)
	sample := func() (*tensor.Tensor, float64) {
		x := g.Uniform(-1, 1, 2)
		return x, 2*x.At(0) - x.At(1)
	}
	meanLoss := func(n int) float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			x, y := sample()
			d := net.Forward(x).At(0) - y
			s += 0.5 * d * d
		}
		return s / float64(n)
	}
	before := meanLoss(100)
	grad := tensor.New(1)
	for i := 0; i < 1500; i++ {
		x, y := sample()
		for _, gr := range net.Grads() {
			gr.Zero()
		}
		grad.Data()[0] = net.Forward(x).At(0) - y
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
	}
	after := meanLoss(100)
	if after > before/10 {
		t.Fatalf("training did not reduce loss: before %g after %g", before, after)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	g := tensor.NewRNG(12)
	f := NewFlatten()
	x := g.Randn(1, 2, 3, 4)
	y := f.Forward(x)
	if y.Rank() != 1 || y.Len() != 24 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	back := f.Backward(y)
	if back.Rank() != 3 || back.Dim(0) != 2 || back.Dim(1) != 3 || back.Dim(2) != 4 {
		t.Fatalf("backward shape = %v", back.Shape())
	}
}
