package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestSweepOnly pins that a single run rejects each fault-tolerance flag
// set away from its default, naming the flag, and accepts the defaults.
func TestSweepOnly(t *testing.T) {
	if err := sweepOnly(1, 0, 0); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, c := range []struct {
		flag       string
		retries    int
		jobTimeout time.Duration
		budget     float64
	}{
		{"-retries", 3, 0, 0},
		{"-retries", 0, 0, 0},
		{"-job-timeout", 1, time.Millisecond, 0},
		{"-failure-budget", 1, 0, 0.1},
	} {
		err := sweepOnly(c.retries, c.jobTimeout, c.budget)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("retries=%d job-timeout=%v failure-budget=%g: error %v, want one naming %s",
				c.retries, c.jobTimeout, c.budget, err, c.flag)
		}
	}
}

// TestWilsonCI pins the closed-form interval: it brackets the rate inside
// [0, 1], sits high for a near-perfect policy, is zero for zero episodes,
// and matches a hand-computed value.
func TestWilsonCI(t *testing.T) {
	for _, c := range []struct {
		rate float64
		n    int
	}{{0, 20}, {0.05, 20}, {0.5, 7}, {1, 30}} {
		lo, hi := wilsonCI(c.rate, c.n)
		if !(0 <= lo && lo <= c.rate && c.rate <= hi && hi <= 1) {
			t.Errorf("rate %g over %d: CI [%g, %g] does not bracket the rate inside [0, 1]", c.rate, c.n, lo, hi)
		}
	}
	// 30 of 30 expert-style successes: the interval must sit high.
	if lo, _ := wilsonCI(1, 30); lo < 0.6 {
		t.Errorf("30/30 lower bound %g suspiciously low", lo)
	}
	if lo, hi := wilsonCI(0.5, 0); lo != 0 || hi != 0 {
		t.Errorf("zero episodes: CI [%g, %g], want [0, 0]", lo, hi)
	}
	// 1 of 20 by hand: z² = 3.8416, center = (0.05 + z²/40)/(1 + z²/20)
	// = 0.12251, half-width = z/(1 + z²/20)·sqrt(0.05·0.95/20 + z²/1600)
	// = 0.11363, so about 1–24%.
	lo, hi := wilsonCI(1.0/20, 20)
	if math.Abs(lo-0.00888) > 5e-5 || math.Abs(hi-0.23614) > 5e-5 {
		t.Errorf("1 of 20: CI [%.5f, %.5f], want [0.00888, 0.23614]", lo, hi)
	}
}

// TestWilsonCIWiderWithFewerEpisodes: the same rate measured over fewer
// episodes is less certain.
func TestWilsonCIWiderWithFewerEpisodes(t *testing.T) {
	loA, hiA := wilsonCI(0.9, 10)
	loB, hiB := wilsonCI(0.9, 100)
	if hiA-loA <= hiB-loB {
		t.Fatalf("10-episode CI width %.3f should exceed 100-episode width %.3f", hiA-loA, hiB-loB)
	}
}
