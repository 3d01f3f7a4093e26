package taxonomy

import (
	"strings"
	"testing"
)

func TestTableIOnlyAutoPilotChecksEveryColumn(t *testing.T) {
	rows := TableI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	full := 0
	var fullName string
	for _, p := range rows {
		accel := p.HardwareAccel != "none" && p.HardwareAccel != ""
		if p.EndToEnd && accel && p.ConsidersSensor && p.ConsidersUAVPhysics && p.ProvidesMethodology && p.Automated {
			full++
			fullName = p.Name
		}
	}
	if full != 1 || fullName != "AutoPilot" {
		t.Fatalf("full-capability rows = %d (%q), want exactly AutoPilot", full, fullName)
	}
}

func TestTableIKnownRows(t *testing.T) {
	byName := map[string]PriorWork{}
	for _, p := range TableI() {
		byName[p.Name] = p
	}
	if byName["Navion"].EndToEnd || byName["Navion"].Automated {
		t.Error("Navion is VIO-only and manual per Table I")
	}
	if !byName["RoboX"].Automated || !byName["RoboX"].ConsidersUAVPhysics {
		t.Error("RoboX is automated and physics-aware per Table I")
	}
	if !byName["PULP-DroNet"].EndToEnd {
		t.Error("PULP-DroNet accelerates the full E2E stack per Table I")
	}
}

func TestTableVIStructure(t *testing.T) {
	rows := TableVI()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	thisWork := 0
	for _, d := range rows {
		if len(d.Phase1) == 0 || len(d.Phase2) == 0 || len(d.Optimize) == 0 || len(d.Phase3) == 0 {
			t.Errorf("%s: empty phase column", d.Name)
		}
		if d.ThisWork {
			thisWork++
			if d.Phase1[0] != "Air Learning" || d.Phase3[0] != "F-1 model" {
				t.Errorf("this-work row = %+v", d)
			}
		}
	}
	if thisWork != 1 {
		t.Fatalf("this-work rows = %d, want 1", thisWork)
	}
}

func TestTableVIOptimizersMatchPaperList(t *testing.T) {
	// §III-B / Table VI: BO, RL, GA, SA — exactly the set internal/dse and
	// internal/moea implement
	for _, d := range TableVI() {
		if d.ThisWork {
			continue
		}
		if len(d.Optimize) != 4 {
			t.Fatalf("%s: %d optimizers, want 4 (BO/RL/GA/SA)", d.Name, len(d.Optimize))
		}
	}
}

func TestRenderContainsBothTables(t *testing.T) {
	s := Render()
	for _, want := range []string{"Table I", "Table VI", "AutoPilot", "Self-driving cars", "F-1 model", "implemented quantitatively"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
