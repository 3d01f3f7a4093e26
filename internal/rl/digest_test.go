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
	"autopilot/internal/train"
)

// TestDQNTrainingDigestGolden pins every trained parameter bit of a short
// DQN run for the three trainable trunk widths (4, 6 and 8 channels). The
// Phase-1 golden database pins only success rates, and a rate of 0 pins
// nothing; this digest moves if any forward, backward or optimizer step
// changes a single rounding. The last case shrinks the replay ring to 64
// slots and syncs the target every 50 steps, so within 40 episodes the ring
// wraps and the target syncs several times: a bootstrap value kept past
// either event would move its digest.
func TestDQNTrainingDigestGolden(t *testing.T) {
	churn := DefaultDQNConfig()
	churn.BufferSize, churn.TargetSync = 64, 50
	cases := []struct {
		h      policy.Hyper
		cfg    DQNConfig
		steps  int
		digest string
	}{
		{policy.Hyper{Layers: 2, Filters: 32}, DefaultDQNConfig(), 399, "f07acaa877219fc2"},
		{policy.Hyper{Layers: 3, Filters: 48}, DefaultDQNConfig(), 386, "e0cbe247fd96352a"},
		{policy.Hyper{Layers: 3, Filters: 64}, DefaultDQNConfig(), 392, "14ddeffa8f411cd9"},
		{policy.Hyper{Layers: 2, Filters: 32}, churn, 382, "625a654cddbc256d"},
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
		agent := NewDQN(online, target, c.cfg, 7)
		env := airlearning.NewEnv(airlearning.DenseObstacle, 7)
		steps := 0
		for ep := 0; ep < 40; ep++ {
			steps += train.RunTrainingEpisode(env, agent).Steps
		}

		sum := sha256.New()
		var buf [8]byte
		for _, p := range online.Params() {
			for _, v := range p.Data() {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				sum.Write(buf[:])
			}
		}
		got := hex.EncodeToString(sum.Sum(nil)[:8])
		if steps != c.steps || got != c.digest {
			t.Errorf("%s (buffer %d, sync %d): %d steps, digest %s; want %d steps, digest %s",
				c.h, c.cfg.BufferSize, c.cfg.TargetSync, steps, got, c.steps, c.digest)
		}
	}
}
