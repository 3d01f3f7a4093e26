package nn

import (
	"math"

	"autopilot/internal/tensor"
)

// PolicyGradientLoss returns the REINFORCE gradient w.r.t. logits for taking
// `action` with advantage `adv`: grad = adv · (softmax - onehot(action)).
// (The "loss" is -adv·log π(a), returned for monitoring.)
func PolicyGradientLoss(logits *tensor.Tensor, action int, adv float64) (float64, *tensor.Tensor) {
	p := Softmax(logits)
	loss := -adv * math.Log(math.Max(p.Data()[action], 1e-12))
	grad := tensor.Scale(adv, p)
	grad.Data()[action] -= adv
	return loss, grad
}
