package train

import (
	"time"

	"autopilot/internal/airlearning"
	"autopilot/internal/policy"
)

// Progress is one training-run status report: emitted every
// Config.ProgressEvery episodes while a run trains, and once more with Done
// set when its record has been validated.
type Progress struct {
	Hyper     policy.Hyper
	Scenario  airlearning.Scenario
	Algorithm string

	Episode  int // training episodes completed
	Episodes int // training budget
	Steps    int // cumulative env steps

	Return      float64       // return of the last completed episode
	SuccessRate float64       // validated success rate; meaningful when Done
	Elapsed     time.Duration // wall time since the run started

	Done bool
}
