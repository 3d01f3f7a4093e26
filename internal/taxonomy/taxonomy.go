// Package taxonomy encodes the paper's two qualitative tables as data: the
// prior-work comparison (Table I) and the methodology-generalization
// taxonomy (Table VI, §VII) that maps each AutoPilot phase onto the
// components other autonomous-vehicle domains would use. Encoding them as
// code keeps the claims testable (e.g., only AutoPilot checks every Table I
// column) and lets cmd/experiments print the complete set of paper tables.
package taxonomy

import (
	"fmt"
	"strings"
)

// PriorWork is one row of Table I.
type PriorWork struct {
	Name                string
	EndToEnd            bool   // full end-to-end autonomy?
	HardwareAccel       string // what is accelerated
	ConsidersSensor     bool
	ConsidersUAVPhysics bool
	ProvidesMethodology bool
	Automated           bool
}

// TableI returns the paper's prior-work comparison.
func TableI() []PriorWork {
	return []PriorWork{
		{Name: "Navion", HardwareAccel: "only VIO"},
		{Name: "Hadidi et al.", HardwareAccel: "only SLAM", ProvidesMethodology: true},
		{Name: "RoboX", HardwareAccel: "only motion planning", ConsidersUAVPhysics: true, ProvidesMethodology: true, Automated: true},
		{Name: "MavBench", EndToEnd: true, HardwareAccel: "none"},
		{Name: "PULP-DroNet", EndToEnd: true, HardwareAccel: "full end-to-end stack"},
		{Name: "AutoPilot", EndToEnd: true, HardwareAccel: "full end-to-end stack",
			ConsidersSensor: true, ConsidersUAVPhysics: true, ProvidesMethodology: true, Automated: true},
	}
}

// Domain is one row family of Table VI: an autonomous-vehicle domain and the
// components that would instantiate each AutoPilot phase for it.
type Domain struct {
	Name     string
	Paradigm string // autonomy algorithm paradigm
	Phase1   []string
	Phase2   []string
	Optimize []string // the interchangeable ML optimizers
	Phase3   []string
	// ThisWork marks the row the paper implements quantitatively.
	ThisWork bool
}

// TableVI returns the paper's methodology-generalization taxonomy.
func TableVI() []Domain {
	optimizers := []string{"Bayesian optimization", "reinforcement learning", "genetic algorithms", "simulated annealing"}
	return []Domain{
		{
			Name: "UAV (this work)", Paradigm: "E2E",
			Phase1:   []string{"Air Learning"},
			Phase2:   []string{"systolic arrays (SCALE-Sim)"},
			Optimize: []string{"Bayesian optimization"},
			Phase3:   []string{"F-1 model"},
			ThisWork: true,
		},
		{
			Name: "UAVs", Paradigm: "E2E or SPA",
			Phase1:   []string{"PEDRA", "AirSim", "Gym-FC", "MavBench"},
			Phase2:   []string{"systolic arrays", "Simba", "Edge-TPUs", "Eyeriss", "Movidius", "PULP", "MAGNet", "SLAM accel", "OctoMap accel", "RoboX"},
			Optimize: optimizers,
			Phase3:   []string{"F-1 model"},
		},
		{
			Name: "Self-driving cars", Paradigm: "hybrid (PPC+NN)",
			Phase1:   []string{"CARLA", "Apollo", "AirSim"},
			Phase2:   []string{"systolic arrays", "Simba", "Eyeriss", "EyeQ", "Tesla FSD", "MAGNet"},
			Optimize: optimizers,
			Phase3:   []string{"Intel RSS", "Nvidia SFF"},
		},
		{
			Name: "Articulated robots", Paradigm: "E2E or SPA",
			Phase1:   []string{"robot farms (QT-Opt)", "Gazebo"},
			Phase2:   []string{"NN accelerator templates", "SLAM/OctoMap accel", "motion-planning accel", "Robomorphic computing", "RACOD"},
			Optimize: optimizers,
			Phase3:   []string{"ANYpulator safety model"},
		},
	}
}

// Render formats either table for terminals.
func Render() string {
	var b strings.Builder
	b.WriteString("== Table I: prior work on autonomous UAVs ==\n")
	fmt.Fprintf(&b, "%-14s %-6s %-22s %-7s %-8s %-12s %-9s\n",
		"work", "E2E", "hw accel", "sensor", "physics", "methodology", "automated")
	mark := func(v bool) string {
		if v {
			return "yes"
		}
		return "-"
	}
	for _, p := range TableI() {
		fmt.Fprintf(&b, "%-14s %-6s %-22s %-7s %-8s %-12s %-9s\n",
			p.Name, mark(p.EndToEnd), p.HardwareAccel,
			mark(p.ConsidersSensor), mark(p.ConsidersUAVPhysics),
			mark(p.ProvidesMethodology), mark(p.Automated))
	}
	b.WriteString("\n== Table VI: extending the methodology to other domains ==\n")
	for _, d := range TableVI() {
		marker := ""
		if d.ThisWork {
			marker = "  (implemented quantitatively in this repository)"
		}
		fmt.Fprintf(&b, "%s [%s]%s\n", d.Name, d.Paradigm, marker)
		fmt.Fprintf(&b, "  phase 1: %s\n", strings.Join(d.Phase1, ", "))
		fmt.Fprintf(&b, "  phase 2: %s\n", strings.Join(d.Phase2, ", "))
		fmt.Fprintf(&b, "  optimizer: %s\n", strings.Join(d.Optimize, ", "))
		fmt.Fprintf(&b, "  phase 3: %s\n", strings.Join(d.Phase3, ", "))
	}
	return b.String()
}
