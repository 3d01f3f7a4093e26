package nn

import (
	"fmt"
	"math"

	"autopilot/internal/tensor"
)

// BatchLayer is implemented by layers that can evaluate a whole batch of
// inputs in one inference-only pass. ForwardBatch must be pure — it reads
// parameters but writes none of the layer's caches or buffers, and returns
// fresh tensors — so a frozen network can be evaluated concurrently from
// many rollout workers, and each output must be bitwise identical to calling
// Forward on that input alone. Backward after ForwardBatch is undefined; it
// exists for evaluation, not training.
type BatchLayer interface {
	ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor
}

// ForwardBatch computes W·x + b for every input with the exact per-sample
// accumulation order of Forward, without touching the layer's buffers.
func (d *Dense) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		d.checkInput(x)
		ys[i] = tensor.New(d.W.Dim(0))
		d.affine(ys[i].Data(), x.Data())
	}
	return ys
}

// ForwardBatch convolves every input in one GEMM: each sample's im2col
// matrix is unrolled straight into its own column block of one batch
// matrix, which is multiplied against the filter bank once, so each
// sample's output columns see exactly the arithmetic Forward performs on
// them alone. The layer's buffers are left untouched.
func (c *Conv2D) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	d := c.Dims
	oh, ow := d.OutH(), d.OutW()
	hw := oh * ow
	cols := tensor.New(d.InC*d.K*d.K, len(xs)*hw)
	widths := make([]int, len(xs))
	for i, x := range xs {
		tensor.Im2colInto(cols, i*hw, x, d)
		widths[i] = hw
	}
	y := tensor.New(d.OutC, len(xs)*hw)
	tensor.MatMulInto(y, c.W, cols)
	c.addBias(y)
	blocks := tensor.SplitCols(y, widths...)
	for i, blk := range blocks {
		blocks[i] = blk.Reshape(d.OutC, oh, ow)
	}
	return blocks
}

// ForwardBatch applies max(0, x) to every input without caching the
// activation pattern.
func (r *ReLU) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = tensor.New(x.Shape()...)
		relu(ys[i].Data(), x.Data())
	}
	return ys
}

// ForwardBatch applies tanh to every input without caching the output.
func (t *Tanh) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = tensor.Apply(x, math.Tanh)
	}
	return ys
}

// ForwardBatch flattens every input to a vector without caching the shape.
func (f *Flatten) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = x.Reshape(x.Len())
	}
	return ys
}

// ForwardBatch runs a whole batch through every layer, using the cache-free
// batched path where a layer provides one and falling back to per-sample
// Forward, with its result cloned out of the layer's buffer, otherwise. With
// the stock layers (Dense, Conv2D, ReLU, Tanh, Flatten) the whole pass is
// pure: safe for concurrent use on a frozen network and bitwise identical to
// per-sample Forward.
func (s *Sequential) ForwardBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	xs = append([]*tensor.Tensor(nil), xs...)
	for _, l := range s.Layers {
		if bl, ok := l.(BatchLayer); ok {
			xs = bl.ForwardBatch(xs)
			continue
		}
		for i, x := range xs {
			xs[i] = l.Forward(x).Clone()
		}
	}
	return xs
}

// ForwardBatch evaluates the two-branch network on a batch of observations
// without touching the branch-length caches Backward uses: both trunks run
// batched, the per-sample outputs are concatenated, and the head runs
// batched over the joints. Pure for stock layers — the rollout collector
// evaluates one frozen policy from many workers through this path.
func (m *MultiModal) ForwardBatch(imgs, states []*tensor.Tensor) []*tensor.Tensor {
	if len(imgs) != len(states) {
		panic(fmt.Sprintf("nn: MultiModal batch size mismatch %d vs %d", len(imgs), len(states)))
	}
	if len(imgs) == 0 {
		return nil
	}
	vs := m.Vision.ForwardBatch(imgs)
	ss := m.State.ForwardBatch(states)
	joints := make([]*tensor.Tensor, len(imgs))
	for i := range joints {
		vLen, sLen := vs[i].Len(), ss[i].Len()
		joint := tensor.New(vLen + sLen)
		copy(joint.Data(), vs[i].Data())
		copy(joint.Data()[vLen:], ss[i].Data())
		joints[i] = joint
	}
	return m.Head.ForwardBatch(joints)
}
