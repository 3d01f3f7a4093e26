package api

import (
	"time"

	"autopilot/internal/core"
	"autopilot/internal/dse"
	"autopilot/internal/obs"
)

// JobState is the lifecycle of a server-side co-design job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is the server's view of one submitted request: identity, lifecycle,
// and — once terminal — the result or error. It is the body of both the
// POST /v1/jobs acknowledgement and the GET /v1/jobs/{id} status response.
type Job struct {
	ID          string          `json:"id"`
	State       JobState        `json:"state"`
	Tenant      string          `json:"tenant,omitempty"`
	RequestHash string          `json:"request_hash"`
	Request     CoDesignRequest `json:"request"`
	// CacheHit marks a job answered from the shared result store without a
	// pipeline run.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Submitted/Started/Finished are wall-clock lifecycle stamps; they are
	// job metadata, not part of the deterministic result.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Result    *Result    `json:"result,omitempty"`
}

// ParetoPoint is one Phase-2 Pareto-front design in wire form. The loadout
// columns appear only for full-vehicle co-design runs, so legacy results
// stay byte-identical.
type ParetoPoint struct {
	Model          string  `json:"model"`
	Algorithm      string  `json:"algorithm,omitempty"`
	Hardware       string  `json:"hardware"`
	SuccessRate    float64 `json:"success_rate"`
	FPS            float64 `json:"fps"`
	RuntimeSec     float64 `json:"runtime_sec"`
	SoCPowerW      float64 `json:"soc_w"`
	EfficiencyFPSW float64 `json:"fps_per_w"`

	Airframe     string  `json:"airframe,omitempty"`
	Battery      string  `json:"battery,omitempty"`
	Sensor       string  `json:"sensor,omitempty"`
	TotalWeightG float64 `json:"total_weight_g,omitempty"`
	Missions     float64 `json:"missions,omitempty"`
}

// SkipRecord is one infeasible-loadout skip in wire form: a typed answer
// about the design space, never a scored point.
type SkipRecord struct {
	Design   string `json:"design"`
	Airframe string `json:"airframe"`
	Battery  string `json:"battery"`
	Sensor   string `json:"sensor"`
	Reason   string `json:"reason"` // weight | thrust | power
	Detail   string `json:"detail,omitempty"`
}

// Result is the deterministic payload of a completed co-design job: the
// pipeline report digest, the Phase-2 Pareto front, and the run manifest.
// Every field is a pure function of the request (hash), so two jobs with
// equal RequestHash carry byte-identical marshaled Results.
type Result struct {
	Version     string             `json:"version"`
	RequestHash string             `json:"request_hash"`
	Report      core.ReportSummary `json:"report"`
	Pareto      []ParetoPoint      `json:"pareto"`
	// Skips lists designs whose loadout failed the catalog feasibility
	// check (full-vehicle runs only; absent on legacy results).
	Skips    []SkipRecord `json:"skips,omitempty"`
	Manifest obs.Manifest `json:"manifest"`
}

// ParetoFront converts a Phase-2 front to wire form.
func ParetoFront(front []dse.Evaluated) []ParetoPoint {
	out := make([]ParetoPoint, 0, len(front))
	for _, e := range front {
		p := ParetoPoint{
			Model:          e.Design.Hyper.String(),
			Algorithm:      e.Design.Algo,
			Hardware:       e.Design.HW.String(),
			SuccessRate:    e.SuccessRate,
			FPS:            e.FPS,
			RuntimeSec:     e.RuntimeSec,
			SoCPowerW:      e.SoCPowerW,
			EfficiencyFPSW: e.EfficiencyFPSW(),
		}
		if v := e.Design.Vehicle; v != (dse.VehicleRef{}) {
			p.Airframe, p.Battery, p.Sensor = v.Airframe, v.Battery, v.Sensor
			p.TotalWeightG = e.Vehicle.TotalWeightG
			p.Missions = e.Vehicle.Missions
		}
		out = append(out, p)
	}
	return out
}

// SkipRecords converts Phase-2 infeasible-loadout skips to wire form.
func SkipRecords(skips []dse.Skip) []SkipRecord {
	if len(skips) == 0 {
		return nil
	}
	out := make([]SkipRecord, 0, len(skips))
	for _, s := range skips {
		out = append(out, SkipRecord{
			Design:   s.Design,
			Airframe: s.Loadout.Airframe,
			Battery:  s.Loadout.Battery,
			Sensor:   s.Loadout.Sensor,
			Reason:   s.Reason,
			Detail:   s.Detail,
		})
	}
	return out
}

// NewResult assembles the wire result for a completed pipeline run. The
// manifest's timing fields are the caller's concern; its deterministic
// sections (Config, Seeds) must come from the same request via
// ManifestConfig/ManifestSeeds for the cross-surface identity guarantee.
func NewResult(req CoDesignRequest, rep *core.Report, man obs.Manifest) Result {
	return Result{
		Version:     Version,
		RequestHash: req.Hash(),
		Report:      rep.Summary(),
		Pareto:      ParetoFront(rep.Phase2.Pareto()),
		Skips:       SkipRecords(rep.Phase2.Skips),
		Manifest:    man,
	}
}
