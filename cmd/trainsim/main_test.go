package main

import (
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
