package hw

import (
	"time"

	"autopilot/internal/obs"
)

// instrumented wraps a Backend with cost-model latency telemetry.
type instrumented struct {
	b       Backend
	seconds *obs.Histogram
	calls   *obs.Counter
	errors  *obs.Counter
}

// Instrument returns a backend that times every Estimate into the seconds
// histogram and counts calls and errors. The wrapper changes nothing about
// the estimate itself — backends stay deterministic pure functions of the
// workload — and with all instruments nil it still reads the clock, so only
// wrap when observability is on.
func Instrument(b Backend, seconds *obs.Histogram, calls, errors *obs.Counter) Backend {
	return instrumented{b: b, seconds: seconds, calls: calls, errors: errors}
}

// Estimate times the wrapped backend's estimate.
func (i instrumented) Estimate(w Workload) (Estimate, error) {
	start := time.Now()
	est, err := i.b.Estimate(w)
	i.seconds.Observe(time.Since(start).Seconds())
	i.calls.Inc()
	if err != nil {
		i.errors.Inc()
	}
	return est, err
}
