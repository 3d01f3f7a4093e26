package nn

import "autopilot/internal/tensor"

// Sequential chains layers; output of one feeds the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential returns a network composed of the given layers in order.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the input through every layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates the output gradient through every layer in reverse,
// accumulating parameter gradients, and returns the input gradient.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Replica returns a network of the layers' replicas: the same parameters,
// fresh buffers, Forward only.
func (s *Sequential) Replica() *Sequential {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = l.Replica()
	}
	return NewSequential(layers...)
}

// Params returns all trainable tensors in layer order.
func (s *Sequential) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradient tensors, parallel to Params.
func (s *Sequential) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range s.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// ZeroGrads clears all accumulated gradients.
func (s *Sequential) ZeroGrads() {
	for _, g := range s.Grads() {
		g.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Len()
	}
	return n
}

// CopyParamsFrom overwrites this network's parameters with src's. The two
// networks must have identical architecture. Used for DQN target networks.
func (s *Sequential) CopyParamsFrom(src *Sequential) {
	dst, from := s.Params(), src.Params()
	if len(dst) != len(from) {
		panic("nn: CopyParamsFrom architecture mismatch")
	}
	for i := range dst {
		copy(dst[i].Data(), from[i].Data())
	}
}
