// Package experiments regenerates every table and figure in the paper's
// evaluation (§V–§VI). Each Fig*/Table* function runs the relevant slice of
// the AutoPilot pipeline and returns a Table whose rows mirror what the
// paper plots; cmd/experiments and the benchmark harness print them, and
// EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"autopilot/internal/airlearning"
	"autopilot/internal/bayesopt"
	"autopilot/internal/catalog"
	"autopilot/internal/core"
	"autopilot/internal/dse"
)

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "Fig5a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// DefaultConfig returns the standard experiment budget, the Phase-2 config
// every suite run uses: sized so the full suite runs in seconds while still
// exercising BO properly.
func DefaultConfig() dse.Config {
	bo := bayesopt.DefaultConfig()
	bo.InitSamples, bo.Iterations, bo.ScreenSize = 16, 48, 256
	return dse.Config{CandidatePool: 1024, BO: bo, Seed: 1, ProbeCorners: true}
}

// Suite caches pipeline runs so figures sharing a (UAV, scenario) pair reuse
// the same report, exactly as the paper derives multiple figures from one
// DSE run.
type Suite struct {
	cfg     dse.Config
	reports map[string]*core.Report
}

// NewSuite returns an experiment suite whose pipeline runs use the given
// Phase-2 budget.
func NewSuite(cfg dse.Config) *Suite {
	return &Suite{cfg: cfg, reports: map[string]*core.Report{}}
}

// report runs (or fetches) the full pipeline for a platform and scenario.
func (s *Suite) report(p catalog.Loadout, scen airlearning.Scenario) (*core.Report, error) {
	key := fmt.Sprintf("%s/%s", p.Airframe.Label, scen)
	if r, ok := s.reports[key]; ok {
		return r, nil
	}
	spec := core.DefaultSpec(p, scen)
	spec.Phase2 = s.cfg
	rep, err := core.Run(context.Background(), spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", key, err)
	}
	s.reports[key] = rep
	return rep, nil
}

func f1s(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2s(v float64) string { return fmt.Sprintf("%.2f", v) }

// All regenerates every experiment in paper order.
func (s *Suite) All() ([]Table, error) {
	var out []Table
	steps := []func() (Table, error){
		s.Fig2b, s.Fig3b,
	}
	for _, f := range steps {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	fig5, err := s.Fig5()
	if err != nil {
		return nil, err
	}
	out = append(out, fig5...)
	rest := []func() (Table, error){
		s.Fig6, s.Fig7, s.Fig8, s.Fig9, s.Fig10, s.Fig11, s.TableV,
		s.ExtSensor, s.ExtOptimizer, s.ExtBaselines, s.ExtSPA,
	}
	for _, f := range rest {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
