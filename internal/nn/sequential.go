package nn

import "autopilot/internal/tensor"

// Sequential chains layers; output of one feeds the next.
type Sequential struct {
	Layers []Layer

	params, grads []*tensor.Tensor // built by the first Params and Grads
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

// Params returns all trainable tensors in layer order. A layer's tensors
// never change identity, so the list is built once, by the first call, and
// every later call returns it: the result must not be modified, and the
// layers must not change after that call.
func (s *Sequential) Params() []*tensor.Tensor {
	if s.params == nil {
		s.params = collect(s.Layers, Layer.Params)
	}
	return s.params
}

// Grads returns all gradient tensors, parallel to Params. Like Params it is
// built once and must not be modified.
func (s *Sequential) Grads() []*tensor.Tensor {
	if s.grads == nil {
		s.grads = collect(s.Layers, Layer.Grads)
	}
	return s.grads
}

// collect concatenates each layer's tensors in layer order. The result is
// non-nil even when empty, so a cache of it is built only once.
func collect(layers []Layer, of func(Layer) []*tensor.Tensor) []*tensor.Tensor {
	ts := []*tensor.Tensor{}
	for _, l := range layers {
		ts = append(ts, of(l)...)
	}
	return ts
}
