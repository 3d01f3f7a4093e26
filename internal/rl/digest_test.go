package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
	"autopilot/internal/tensor"
)

// TestDQNTrainingDigestGolden pins every trained parameter bit of a short
// DQN run for the three trainable trunk widths (4, 6 and 8 channels). The
// Phase-1 golden database pins only success rates, and a rate of 0 pins
// nothing; this digest moves if any forward, backward or optimizer step
// changes a single rounding.
func TestDQNTrainingDigestGolden(t *testing.T) {
	cases := []struct {
		h      policy.Hyper
		steps  int
		digest string
	}{
		{policy.Hyper{Layers: 2, Filters: 32}, 399, "f07acaa877219fc2"},
		{policy.Hyper{Layers: 3, Filters: 48}, 386, "e0cbe247fd96352a"},
		{policy.Hyper{Layers: 3, Filters: 64}, 392, "14ddeffa8f411cd9"},
	}
	for _, c := range cases {
		g := tensor.NewRNG(7)
		online, err := policy.NewTrainable(c.h, policy.DefaultTrainable(), g)
		if err != nil {
			t.Fatal(err)
		}
		target, err := policy.NewTrainable(c.h, policy.DefaultTrainable(), g)
		if err != nil {
			t.Fatal(err)
		}
		agent := NewDQN(online, target, DefaultDQNConfig(), 7)
		stats := agent.Train(airlearning.NewEnv(airlearning.DenseObstacle, 7), 40)

		sum := sha256.New()
		var buf [8]byte
		for _, p := range online.Params() {
			for _, v := range p.Data() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				sum.Write(buf[:])
			}
		}
		got := hex.EncodeToString(sum.Sum(nil)[:8])
		if stats.Steps != c.steps || got != c.digest {
			t.Errorf("%s: %d steps, digest %s; want %d steps, digest %s",
				c.h, stats.Steps, got, c.steps, c.digest)
		}
	}
}
