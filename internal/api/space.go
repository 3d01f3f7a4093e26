package api

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"autopilot/internal/airlearning"
	"autopilot/internal/dse"
	"autopilot/internal/policy"
)

// This file is the contract surface of the parameter-space layer
// (internal/space): a versioned, JSON-serializable space description on
// CoDesignRequest. A request without a space block searches the paper's
// Table II grid exactly as before — legacy requests normalize to the
// equivalent axes and hash identically. A request with a space block
// overrides individual axes (including the categorical algorithm axis that
// turns the run into an algorithm–SoC co-search) while every unnamed axis
// keeps its Table II default.

// SpaceVersion is the current space-description schema version.
const SpaceVersion = 1

// Axis names accepted in a request's space block. The three scratchpads
// share one "sram_kb" axis at the contract level, mirroring dse.Space.
const (
	AxisAlgorithm = "algorithm"
	AxisLayers    = "layers"
	AxisFilters   = "filters"
	AxisPERows    = "pe_rows"
	AxisPECols    = "pe_cols"
	AxisSRAMKB    = "sram_kb"
)

// axisRank orders axes canonically for normalization; unknown names sort
// last (and are rejected by Validate).
func axisRank(name string) int {
	switch name {
	case AxisAlgorithm:
		return 0
	case AxisLayers:
		return 1
	case AxisFilters:
		return 2
	case AxisPERows:
		return 3
	case AxisPECols:
		return 4
	case AxisSRAMKB:
		return 5
	}
	return 6
}

// AxisSpec is one axis of an explicit search space: integer values for the
// numeric axes, string choices for the categorical ones. Exactly one of
// Values/Choices must be set, matching the axis kind.
type AxisSpec struct {
	Name    string   `json:"name"`
	Values  []int    `json:"values,omitempty"`
	Choices []string `json:"choices,omitempty"`
}

// SpaceSpec is the versioned space description of a request. Axes override
// the Table II defaults by name; unnamed axes keep their defaults.
type SpaceSpec struct {
	Version int        `json:"version,omitempty"`
	Axes    []AxisSpec `json:"axes,omitempty"`
}

// SpaceError is the typed validation error for a malformed space block.
type SpaceError struct {
	Axis   string
	Reason string
}

func (e *SpaceError) Error() string {
	if e.Axis == "" {
		return "api: space: " + e.Reason
	}
	return fmt.Sprintf("api: space axis %q: %s", e.Axis, e.Reason)
}

// defaultAxisValues returns the Table II default for a numeric axis.
func defaultAxisValues(name string) []int {
	def := dse.DefaultSpace()
	switch name {
	case AxisLayers:
		return def.Layers
	case AxisFilters:
		return def.Filters
	case AxisPERows:
		return def.PERows
	case AxisPECols:
		return def.PECols
	case AxisSRAMKB:
		return def.SRAMKB
	}
	return nil
}

// normalizedSpace canonicalizes a space block: axis values are deduped and
// sorted (ascending for ints, lexicographic for choices), axes are put in
// canonical order, and axes equal to their Table II default — including an
// algorithm axis pinned to the legacy {dqn} — are dropped. A block with no
// surviving axes normalizes to nil, so an explicit spelling of the default
// grid hashes identically to a legacy request without a space block.
func normalizedSpace(s *SpaceSpec) *SpaceSpec {
	if s == nil {
		return nil
	}
	n := SpaceSpec{Version: s.Version}
	if n.Version == 0 {
		n.Version = SpaceVersion
	}
	for _, a := range s.Axes {
		a.Name = strings.ToLower(strings.TrimSpace(a.Name))
		a.Values = append([]int(nil), a.Values...)
		slices.Sort(a.Values)
		a.Values = slices.Compact(a.Values)
		a.Choices = dedupeStrings(a.Choices)
		if a.Name == AxisAlgorithm && slices.Equal(a.Choices, []string{airlearning.AlgorithmDQN}) {
			continue // the legacy fixed algorithm: not a search axis
		}
		if def := defaultAxisValues(a.Name); def != nil && len(a.Choices) == 0 && slices.Equal(a.Values, def) {
			continue
		}
		n.Axes = append(n.Axes, a)
	}
	sort.SliceStable(n.Axes, func(i, j int) bool {
		return axisRank(n.Axes[i].Name) < axisRank(n.Axes[j].Name)
	})
	if len(n.Axes) == 0 && n.Version == SpaceVersion {
		return nil
	}
	return &n
}

// dedupeStrings lowercases and trims, sorts, and drops duplicates.
func dedupeStrings(vs []string) []string {
	var out []string
	for _, v := range vs {
		out = append(out, strings.ToLower(strings.TrimSpace(v)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// validateSpace checks a normalized space block with typed *SpaceError
// values: axis names must be known and unique, every axis must be
// non-empty and of the right kind, model axes must stay within the trained
// template family, and hardware values must be positive.
func validateSpace(s *SpaceSpec, train bool) error {
	if s == nil {
		return nil
	}
	if s.Version != SpaceVersion {
		return &SpaceError{Reason: fmt.Sprintf("unsupported space version %d (want %d)", s.Version, SpaceVersion)}
	}
	seen := map[string]bool{}
	for _, a := range s.Axes {
		if a.Name == "" {
			return &SpaceError{Reason: "unnamed axis"}
		}
		if axisRank(a.Name) > 5 {
			return &SpaceError{Axis: a.Name, Reason: "unknown axis (want algorithm|layers|filters|pe_rows|pe_cols|sram_kb)"}
		}
		if seen[a.Name] {
			return &SpaceError{Axis: a.Name, Reason: "duplicate axis"}
		}
		seen[a.Name] = true
		if a.Name == AxisAlgorithm {
			if len(a.Values) > 0 {
				return &SpaceError{Axis: a.Name, Reason: "categorical axis takes choices, not values"}
			}
			if len(a.Choices) == 0 {
				return &SpaceError{Axis: a.Name, Reason: "empty axis"}
			}
			for _, c := range a.Choices {
				if !airlearning.KnownAlgorithm(c) || c == "" {
					return &SpaceError{Axis: a.Name, Reason: fmt.Sprintf("unknown algorithm %q (want dqn|reinforce)", c)}
				}
			}
			if train && (len(a.Choices) > 1 || a.Choices[0] != airlearning.AlgorithmDQN) {
				return &SpaceError{Axis: a.Name, Reason: "algorithm co-search requires surrogate Phase 1 (drop the train block)"}
			}
			continue
		}
		if len(a.Choices) > 0 {
			return &SpaceError{Axis: a.Name, Reason: "numeric axis takes values, not choices"}
		}
		if len(a.Values) == 0 {
			return &SpaceError{Axis: a.Name, Reason: "empty axis"}
		}
		switch a.Name {
		case AxisLayers:
			for _, v := range a.Values {
				if !slices.Contains(policy.LayerChoices, v) {
					return &SpaceError{Axis: a.Name, Reason: fmt.Sprintf("value %d outside the trained template family %v", v, policy.LayerChoices)}
				}
			}
		case AxisFilters:
			for _, v := range a.Values {
				if !slices.Contains(policy.FilterChoices, v) {
					return &SpaceError{Axis: a.Name, Reason: fmt.Sprintf("value %d outside the trained template family %v", v, policy.FilterChoices)}
				}
			}
		default:
			for _, v := range a.Values {
				if v <= 0 {
					return &SpaceError{Axis: a.Name, Reason: fmt.Sprintf("non-positive value %d", v)}
				}
			}
		}
	}
	return nil
}

// SearchSpace resolves the request's Phase-2 search space: the Table II
// default grid with every axis the space block names overridden — the one
// translation from the wire space description onto dse.Space.
func (r CoDesignRequest) SearchSpace() (dse.Space, error) {
	if err := r.Validate(); err != nil {
		return dse.Space{}, err
	}
	n := r.Normalized()
	sp := dse.DefaultSpace()
	vehicleSpace(&sp, n.Vehicle, n.UAVClass)
	if n.Space == nil {
		return sp, nil
	}
	for _, a := range n.Space.Axes {
		switch a.Name {
		case AxisAlgorithm:
			if len(a.Choices) > 1 || (len(a.Choices) == 1 && a.Choices[0] != airlearning.AlgorithmDQN) {
				sp.Algorithms = a.Choices
			}
		case AxisLayers:
			sp.Layers = a.Values
		case AxisFilters:
			sp.Filters = a.Values
		case AxisPERows:
			sp.PERows = a.Values
		case AxisPECols:
			sp.PECols = a.Values
		case AxisSRAMKB:
			sp.SRAMKB = a.Values
		}
	}
	return sp, nil
}

// ParseSpaceFlags assembles a space block from CLI flag values: algorithms
// is the comma-separated -algorithms list, axes the repeated -axis
// "name=v1,v2,..." assignments. Both empty returns nil (the legacy grid).
func ParseSpaceFlags(algorithms string, axes []string) (*SpaceSpec, error) {
	var spec SpaceSpec
	if s := strings.TrimSpace(algorithms); s != "" {
		spec.Axes = append(spec.Axes, AxisSpec{Name: AxisAlgorithm, Choices: strings.Split(s, ",")})
	}
	for _, kv := range axes {
		name, vals, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, &SpaceError{Reason: fmt.Sprintf("malformed -axis %q (want name=v1,v2,...)", kv)}
		}
		name = strings.ToLower(strings.TrimSpace(name))
		if name == AxisAlgorithm {
			spec.Axes = append(spec.Axes, AxisSpec{Name: name, Choices: strings.Split(vals, ",")})
			continue
		}
		ax := AxisSpec{Name: name}
		for _, f := range strings.Split(vals, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, &SpaceError{Axis: name, Reason: fmt.Sprintf("bad value %q", f)}
			}
			ax.Values = append(ax.Values, v)
		}
		spec.Axes = append(spec.Axes, ax)
	}
	if len(spec.Axes) == 0 {
		return nil, nil
	}
	return &spec, nil
}
