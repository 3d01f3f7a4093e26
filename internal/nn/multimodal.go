package nn

import (
	"fmt"
	"slices"

	"autopilot/internal/tensor"
)

// MultiModal is the two-branch network shape used by the Air Learning E2E
// policy template (paper Fig. 2a): an image trunk (convolutions) and a state
// trunk (IMU/goal vector through dense layers) whose outputs are concatenated
// and fed to a dense head that produces action values or logits.
type MultiModal struct {
	Vision *Sequential
	State  *Sequential
	Head   *Sequential

	vLen, sLen    int              // cached branch output lengths from the last Forward
	joint         *tensor.Tensor   // concatenated branch outputs fed to the head
	vGrad, sGrad  *tensor.Tensor   // the head's input gradient, split per branch
	params, grads []*tensor.Tensor // built by the first Params and Grads
}

// NewMultiModal combines the three sub-networks.
func NewMultiModal(vision, state, head *Sequential) *MultiModal {
	return &MultiModal{Vision: vision, State: state, Head: head}
}

// Forward runs both branches, concatenates their outputs, and applies the
// head. The result is the head's output buffer, valid until the next Forward.
func (m *MultiModal) Forward(img, state *tensor.Tensor) *tensor.Tensor {
	v := m.Vision.Forward(img)
	s := m.State.Forward(state)
	m.vLen, m.sLen = v.Len(), s.Len()
	m.joint = reuse(m.joint, m.vLen+m.sLen)
	copy(m.joint.Data(), v.Data())
	copy(m.joint.Data()[m.vLen:], s.Data())
	return m.Head.Forward(m.joint)
}

// Replica returns a network that shares m's parameters and owns its forward
// buffers, so a frozen network can be evaluated on several goroutines at
// once, one replica each. Its Forward is m's Forward, bit for bit. A replica
// has no gradients: it is for Forward only.
func (m *MultiModal) Replica() *MultiModal {
	return NewMultiModal(m.Vision.Replica(), m.State.Replica(), m.Head.Replica())
}

// Backward propagates the output gradient through the head and splits it
// across the two branches. Forward must have been called first.
func (m *MultiModal) Backward(grad *tensor.Tensor) {
	if m.vLen == 0 && m.sLen == 0 {
		panic("nn: MultiModal.Backward before Forward")
	}
	joint := m.Head.Backward(grad)
	if joint.Len() != m.vLen+m.sLen {
		panic(fmt.Sprintf("nn: joint grad len %d, want %d", joint.Len(), m.vLen+m.sLen))
	}
	jd := joint.Data()
	m.vGrad, m.sGrad = reuse(m.vGrad, m.vLen), reuse(m.sGrad, m.sLen)
	copy(m.vGrad.Data(), jd[:m.vLen])
	copy(m.sGrad.Data(), jd[m.vLen:])
	m.Vision.Backward(m.vGrad)
	m.State.Backward(m.sGrad)
}

// Params returns all trainable tensors across the three sub-networks. It is
// built once, by the first call, like Sequential's: the result must not be
// modified.
func (m *MultiModal) Params() []*tensor.Tensor {
	if m.params == nil {
		m.params = slices.Concat(m.Vision.Params(), m.State.Params(), m.Head.Params())
	}
	return m.params
}

// Grads returns all gradient tensors, parallel to Params. Like Params it is
// built once and must not be modified.
func (m *MultiModal) Grads() []*tensor.Tensor {
	if m.grads == nil {
		m.grads = slices.Concat(m.Vision.Grads(), m.State.Grads(), m.Head.Grads())
	}
	return m.grads
}

// ZeroGrads clears all accumulated gradients.
func (m *MultiModal) ZeroGrads() {
	for _, g := range m.Grads() {
		g.Zero()
	}
}

// CopyParamsFrom overwrites this network's parameters with src's.
func (m *MultiModal) CopyParamsFrom(src *MultiModal) {
	dst, from := m.Params(), src.Params()
	if len(dst) != len(from) {
		panic("nn: MultiModal.CopyParamsFrom architecture mismatch")
	}
	for i := range dst {
		copy(dst[i].Data(), from[i].Data())
	}
}
