package nn

import (
	"math"

	"autopilot/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	in    *tensor.Tensor // input of the last Forward
	y, dx *tensor.Tensor // output and input-gradient buffers
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.in = x
	r.y = reuse(r.y, x.Shape()...)
	relu(r.y.Data(), x.Data())
	return r.y
}

// relu writes max(0, v) as v where v > 0 and +0 elsewhere, NaN included.
// It selects with a mask over the value's bits, which the compiler makes a
// conditional move, so the data's signs cost no branch mispredictions.
func relu(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		m := uint64(0)
		if v > 0 {
			m = ^uint64(0)
		}
		dst[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
}

// Backward masks the incoming gradient by the activation pattern: it zeroes
// the gradient where the input was <= 0 and keeps it elsewhere, NaN inputs
// included, with the same branch-free select as Forward.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = reuse(r.dx, grad.Shape()...)
	gd := grad.Data()
	od, id := r.dx.Data()[:len(gd)], r.in.Data()[:len(gd)]
	for i, g := range gd {
		m := ^uint64(0)
		if id[i] <= 0 {
			m = 0
		}
		od[i] = math.Float64frombits(math.Float64bits(g) & m)
	}
	return r.dx
}

// Params returns no tensors: ReLU has no parameters.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads returns no tensors: ReLU has no parameters.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Replica returns a ReLU with its own buffers.
func (r *ReLU) Replica() Layer { return NewReLU() }

// Flatten reshapes any input to rank 1, remembering the original shape so the
// gradient can be restored on the way back. Both directions return views of
// the tensor passed in, not copies.
type Flatten struct {
	shape    []int
	fwd, bwd view
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens x to a vector.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.shape = append(f.shape[:0], x.Shape()...)
	return f.fwd.of(x, x.Len())
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.bwd.of(grad, f.shape...)
}

// Params returns no tensors: Flatten has no parameters.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads returns no tensors: Flatten has no parameters.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Replica returns a Flatten with its own views.
func (f *Flatten) Replica() Layer { return NewFlatten() }

// Softmax returns the softmax of a vector, computed stably.
func Softmax(x *tensor.Tensor) *tensor.Tensor {
	mx, _ := x.Max()
	out := tensor.Apply(x, func(v float64) float64 { return math.Exp(v - mx) })
	s := out.Sum()
	out.ScaleInPlace(1 / s)
	return out
}
