package train_test

import (
	"context"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/obs"
	"autopilot/internal/train"
)

// benchPolicy is a cheap policy, safe for concurrent use, so the benchmark
// measures the rollout loop (and its instrumentation), not network
// arithmetic.
type benchPolicy struct{}

func (benchPolicy) Act(o airlearning.Observation) int { return 0 }

// benchCollect drives the Collector's rollout path — the hot path every
// instrument in this package rides on.
func benchCollect(b *testing.B, o *obs.Observer) {
	c := train.Collector{
		Scenario: airlearning.LowObstacle,
		Seed:     1,
		Workers:  1,
		Obs:      o,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Collect(ctx, benchPolicy{}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectUninstrumented vs BenchmarkCollectInstrumented pins the
// observability overhead budget on the rollout path: the instrumented run
// must stay within ~2% of the uninstrumented one (compare with benchstat).
//
//	go test ./internal/train -bench Collect -benchmem
func BenchmarkCollectUninstrumented(b *testing.B) {
	benchCollect(b, nil)
}

func BenchmarkCollectInstrumented(b *testing.B) {
	benchCollect(b, &obs.Observer{Metrics: obs.NewRegistry()})
}
