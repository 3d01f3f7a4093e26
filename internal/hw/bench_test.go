package hw

import (
	"testing"

	"autopilot/internal/cpu"
	"autopilot/internal/policy"
	"autopilot/internal/power"
)

// BenchmarkSystolicEstimate measures one uncached network estimate through
// the backend seam — the unit of work Phase 2 spends its budget on.
func BenchmarkSystolicEstimate(b *testing.B) {
	net, err := policy.Build(policy.Hyper{Layers: 5, Filters: 32}, policy.DefaultTemplate())
	if err != nil {
		b.Fatal(err)
	}
	be := SystolicBackend{Config: testConfig(), Power: power.Default()}
	w := NetworkWorkload("L5F32", net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.Estimate(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPAEstimate measures SPA op-count pricing on a catalog CPU.
func BenchmarkSPAEstimate(b *testing.B) {
	w := SPAWorkload("spa/dense", 50_000)
	be := CPUBackend{Config: cpu.Catalog()[0], Power: cpu.DefaultPowerModel()}
	for i := 0; i < b.N; i++ {
		if _, err := be.Estimate(w); err != nil {
			b.Fatal(err)
		}
	}
}
