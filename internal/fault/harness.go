package fault

import (
	"autopilot/internal/hw"
)

// This file holds the concrete injection wrappers for the pipeline's fault
// surfaces: hardware cost-model backends (Phase-2 evaluations) and
// environment resets (Phase-1 rollouts). Training-job injection lives in
// internal/train, which threads the injector around whole jobs.

// injectedBackend applies an injector's decision for one key around a real
// hw.Backend.
type injectedBackend struct {
	in  *Injector
	key string
	b   hw.Backend
}

// Estimate runs the wrapped backend under the key's fault decision: panics
// and injected errors surface like real simulator crashes, delays stall the
// estimate, and a NaN hit poisons the FPS — which the dse evaluator's
// CheckFinite guardrail must then catch.
func (f injectedBackend) Estimate(w hw.Workload) (hw.Estimate, error) {
	var est hw.Estimate
	err := f.in.Invoke(f.key, func() error {
		var e error
		est, e = f.b.Estimate(w)
		return e
	})
	if err != nil {
		return hw.Estimate{}, err
	}
	est.FPS = f.in.Value(f.key, est.FPS)
	return est, nil
}

// Backend wraps a hardware cost-model backend with the injector's decision
// for key. A nil injector returns b untouched.
func (in *Injector) Backend(key string, b hw.Backend) hw.Backend {
	if in == nil {
		return b
	}
	return injectedBackend{in: in, key: key, b: b}
}
