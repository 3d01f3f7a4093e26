package core

import (
	"encoding/json"
	"fmt"
	"io"

	"autopilot/internal/dse"
	"autopilot/internal/uav"
)

// SelectionSummary is the JSON-friendly digest of a full-system evaluation.
type SelectionSummary struct {
	Model        string  `json:"model"`
	Algorithm    string  `json:"algorithm,omitempty"`
	Hardware     string  `json:"hardware"`
	NodeNM       int     `json:"node_nm"`
	Tuned        string  `json:"tuned,omitempty"`
	SuccessRate  float64 `json:"success_rate"`
	FPS          float64 `json:"fps"`
	SoCPowerW    float64 `json:"soc_w"`
	PayloadG     float64 `json:"payload_g"`
	ActionHz     float64 `json:"action_hz"`
	KneeHz       float64 `json:"knee_hz"`
	Bound        string  `json:"bound"`
	Provisioning string  `json:"provisioning"`
	VSafeMS      float64 `json:"v_safe_ms"`
	Missions     float64 `json:"missions"`
	Liftable     bool    `json:"liftable"`

	// Loadout columns: present only for full-vehicle co-design runs, so
	// legacy summaries stay byte-identical.
	Airframe     string  `json:"airframe,omitempty"`
	Battery      string  `json:"battery,omitempty"`
	Sensor       string  `json:"sensor,omitempty"`
	TotalWeightG float64 `json:"total_weight_g,omitempty"`
}

// Summary converts a selection to its digest form.
func (s Selection) Summary() SelectionSummary {
	sum := SelectionSummary{
		Model:        s.Design.Design.Hyper.String(),
		Algorithm:    s.Design.Design.Algo,
		Hardware:     s.Design.Design.HW.String(),
		NodeNM:       s.NodeNM,
		Tuned:        s.Tuned,
		SuccessRate:  s.Design.SuccessRate,
		FPS:          s.Design.FPS,
		SoCPowerW:    s.Design.SoCPowerW,
		PayloadG:     s.PayloadG,
		ActionHz:     s.ActionHz,
		KneeHz:       s.KneeHz,
		Bound:        s.Bound.String(),
		Provisioning: s.Provisioning.String(),
		VSafeMS:      s.VSafeMS,
		Missions:     s.Missions(),
		Liftable:     s.Liftable,
	}
	if v := s.Loadout; v != (dse.VehicleRef{}) {
		sum.Airframe, sum.Battery, sum.Sensor = v.Airframe, v.Battery, v.Sensor
		sum.TotalWeightG = s.Design.Vehicle.TotalWeightG
	}
	return sum
}

// ReportSummary is the JSON-friendly digest of a pipeline run.
type ReportSummary struct {
	UAV       string            `json:"uav"`
	Scenario  string            `json:"scenario"`
	Policies  int               `json:"phase1_policies"`
	Evaluated int               `json:"phase2_evaluated"`
	Front     int               `json:"phase2_front"`
	Selected  SelectionSummary  `json:"selected"`
	HT        SelectionSummary  `json:"ht"`
	LP        SelectionSummary  `json:"lp"`
	HE        SelectionSummary  `json:"he"`
	Baselines []BaselineSummary `json:"baselines,omitempty"`
}

// BaselineSummary is one general-purpose board evaluated at mission level.
type BaselineSummary struct {
	Name     string  `json:"name"`
	Missions float64 `json:"missions"`
	Gain     float64 `json:"autopilot_gain"`
	Liftable bool    `json:"liftable"`
}

// Summary converts the report, including the Fig. 5 baseline comparison.
func (r *Report) Summary() ReportSummary {
	out := ReportSummary{
		UAV:       r.Spec.Platform.Name,
		Scenario:  r.Spec.Scenario.String(),
		Evaluated: len(r.Phase2.Evaluated),
		Front:     len(r.Phase2.ParetoIdx),
		Selected:  r.Selected.Summary(),
		HT:        r.HT.Summary(),
		LP:        r.LP.Summary(),
		HE:        r.HE.Summary(),
	}
	if r.Database != nil {
		out.Policies = r.Database.Len()
		for _, b := range uav.AllBaselines() {
			sel := EvaluateBaseline(r.Spec, r.Database, b)
			out.Baselines = append(out.Baselines, BaselineSummary{
				Name:     b.Name,
				Missions: sel.Missions(),
				Gain:     MissionGain(r.Selected, sel),
				Liftable: sel.Liftable,
			})
		}
	}
	return out
}

// WriteJSON emits the report summary as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Summary()); err != nil {
		return fmt.Errorf("core: encode report: %w", err)
	}
	return nil
}
