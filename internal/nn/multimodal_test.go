package nn

import (
	"testing"

	"autopilot/internal/tensor"
)

func buildMM(g *tensor.RNG) *MultiModal {
	vision := NewSequential(
		NewConv2D(tensor.ConvDims{InC: 1, InH: 6, InW: 6, OutC: 2, K: 3, Stride: 1, Pad: 0}, g),
		NewReLU(),
		NewFlatten(),
	)
	state := NewSequential(NewDense(3, 4, g), NewReLU())
	head := NewSequential(NewDense(2*4*4+4, 8, g), NewReLU(), NewDense(8, 5, g))
	return NewMultiModal(vision, state, head)
}

func TestMultiModalForwardShape(t *testing.T) {
	g := tensor.NewRNG(1)
	m := buildMM(g)
	out := m.Forward(g.Randn(1, 1, 6, 6), g.Randn(1, 3))
	if out.Len() != 5 {
		t.Fatalf("output len = %d, want 5", out.Len())
	}
}

func TestMultiModalBackwardBeforeForwardPanics(t *testing.T) {
	g := tensor.NewRNG(2)
	m := buildMM(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Backward(tensor.New(5))
}

func TestMultiModalGradCheck(t *testing.T) {
	g := tensor.NewRNG(3)
	m := buildMM(g)
	img := g.Randn(1, 1, 6, 6)
	st := g.Randn(1, 3)
	loss := func() float64 {
		y := m.Forward(img, st)
		s := 0.0
		for _, v := range y.Data() {
			s += 0.5 * v * v
		}
		return s
	}
	y := m.Forward(img, st)
	m.ZeroGrads()
	m.Backward(y.Clone())
	params, grads := m.Params(), m.Grads()
	if len(params) != len(grads) {
		t.Fatalf("params %d vs grads %d", len(params), len(grads))
	}
	for pi, p := range params {
		num := numericalGrad(p, loss)
		if !tensor.Equal(num, grads[pi], 1e-3) {
			t.Fatalf("multimodal param %d gradient mismatch", pi)
		}
	}
}

func TestMultiModalCopyParamsFrom(t *testing.T) {
	g := tensor.NewRNG(5)
	a, b := buildMM(g), buildMM(g)
	b.CopyParamsFrom(a)
	img := g.Randn(1, 1, 6, 6)
	st := g.Randn(1, 3)
	if !tensor.Equal(a.Forward(img, st), b.Forward(img, st), 1e-12) {
		t.Fatal("copied networks must agree")
	}
	b.Params()[0].Data()[0] += 1
	if tensor.Equal(a.Forward(img, st), b.Forward(img, st), 1e-12) {
		t.Fatal("copy must not alias")
	}
}

func TestMultiModalGradientsFlowToBothBranches(t *testing.T) {
	g := tensor.NewRNG(6)
	m := buildMM(g)
	out := m.Forward(g.Randn(1, 1, 6, 6), g.Randn(1, 3))
	m.ZeroGrads()
	m.Backward(out.Clone())
	visionNorm, stateNorm := 0.0, 0.0
	for _, gr := range m.Vision.Grads() {
		visionNorm += gr.Norm2()
	}
	for _, gr := range m.State.Grads() {
		stateNorm += gr.Norm2()
	}
	if visionNorm == 0 || stateNorm == 0 {
		t.Fatalf("gradients missing: vision %g, state %g", visionNorm, stateNorm)
	}
}
