package nn

import (
	"math"

	"autopilot/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  [][]float64
}

// NewAdam returns an Adam optimizer with standard defaults for the betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (o *Adam) Step(params, grads []*tensor.Tensor) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, p.Len())
			o.v[i] = make([]float64, p.Len())
		}
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		pd, gd := p.Data(), grads[i].Data()
		m, v := o.m[i], o.v[i]
		for j := range pd {
			g := gd[j]
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			pd[j] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
	}
}

// ClipGrads scales gradients in place so their global L2 norm is at most maxNorm.
func ClipGrads(grads []*tensor.Tensor, maxNorm float64) {
	total := 0.0
	for _, g := range grads {
		for _, v := range g.Data() {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, g := range grads {
		g.ScaleInPlace(scale)
	}
}
