package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"autopilot/internal/dse"
)

// TestSpaceNormalization pins the canonicalization rules: values are deduped
// and sorted, axes ordered canonically, default-equal axes dropped, and an
// explicit spelling of the default grid normalizes to no space block at all.
func TestSpaceNormalization(t *testing.T) {
	r := CoDesignRequest{Space: &SpaceSpec{Axes: []AxisSpec{
		{Name: "Layers", Values: []int{7, 2, 4, 2}},
		{Name: "algorithm", Choices: []string{"REINFORCE", "dqn", "dqn"}},
	}}}
	n := r.Normalized()
	if n.Space == nil || len(n.Space.Axes) != 2 {
		t.Fatalf("normalized space = %+v", n.Space)
	}
	if n.Space.Version != SpaceVersion {
		t.Fatalf("version = %d", n.Space.Version)
	}
	if n.Space.Axes[0].Name != AxisAlgorithm || !reflect.DeepEqual(n.Space.Axes[0].Choices, []string{"dqn", "reinforce"}) {
		t.Fatalf("algorithm axis = %+v", n.Space.Axes[0])
	}
	if n.Space.Axes[1].Name != AxisLayers || !reflect.DeepEqual(n.Space.Axes[1].Values, []int{2, 4, 7}) {
		t.Fatalf("layers axis = %+v", n.Space.Axes[1])
	}

	// Explicit default grid → no space block.
	def := dse.DefaultSpace()
	full := CoDesignRequest{Space: &SpaceSpec{Axes: []AxisSpec{
		{Name: "layers", Values: def.Layers},
		{Name: "filters", Values: def.Filters},
		{Name: "pe_rows", Values: def.PERows},
		{Name: "pe_cols", Values: def.PECols},
		{Name: "sram_kb", Values: def.SRAMKB},
		{Name: "algorithm", Choices: []string{"dqn"}},
	}}}
	if got := full.Normalized().Space; got != nil {
		t.Fatalf("default-grid space block survived normalization: %+v", got)
	}
}

// TestSpaceHashEquivalence pins the contract the cache depends on: a legacy
// request and its explicit-space spelling share a hash, while a genuinely
// different space changes it.
func TestSpaceHashEquivalence(t *testing.T) {
	legacy := CoDesignRequest{UAVClass: "nano", Scenario: "dense"}
	def := dse.DefaultSpace()
	explicit := legacy
	explicit.Space = &SpaceSpec{Axes: []AxisSpec{
		{Name: "layers", Values: def.Layers},
		{Name: "sram_kb", Values: def.SRAMKB},
	}}
	if legacy.Hash() != explicit.Hash() {
		t.Fatal("explicit default space changed the request hash")
	}
	co := legacy
	co.Space = &SpaceSpec{Axes: []AxisSpec{
		{Name: "algorithm", Choices: []string{"dqn", "reinforce"}},
	}}
	if co.Hash() == legacy.Hash() {
		t.Fatal("algorithm co-search did not change the request hash")
	}
	// Dedup/sort means permuted spellings share a hash.
	co2 := legacy
	co2.Space = &SpaceSpec{Axes: []AxisSpec{
		{Name: "algorithm", Choices: []string{"reinforce", "dqn", "reinforce"}},
	}}
	if co.Hash() != co2.Hash() {
		t.Fatal("permuted algorithm spelling changed the hash")
	}
}

// TestSpaceValidation pins the typed rejection of malformed space blocks.
func TestSpaceValidation(t *testing.T) {
	cases := []struct {
		name string
		s    *SpaceSpec
	}{
		{"unknown axis", &SpaceSpec{Axes: []AxisSpec{{Name: "voltage", Values: []int{1}}}}},
		{"unnamed axis", &SpaceSpec{Axes: []AxisSpec{{Values: []int{1}}}}},
		{"duplicate axis", &SpaceSpec{Axes: []AxisSpec{
			{Name: "layers", Values: []int{2}}, {Name: "layers", Values: []int{4}}}}},
		{"empty axis", &SpaceSpec{Axes: []AxisSpec{{Name: "layers"}}}},
		{"choices on numeric axis", &SpaceSpec{Axes: []AxisSpec{{Name: "layers", Choices: []string{"2"}}}}},
		{"values on algorithm axis", &SpaceSpec{Axes: []AxisSpec{{Name: "algorithm", Values: []int{1}}}}},
		{"unknown algorithm", &SpaceSpec{Axes: []AxisSpec{{Name: "algorithm", Choices: []string{"ppo"}}}}},
		{"layers outside family", &SpaceSpec{Axes: []AxisSpec{{Name: "layers", Values: []int{50}}}}},
		{"filters outside family", &SpaceSpec{Axes: []AxisSpec{{Name: "filters", Values: []int{33}}}}},
		{"non-positive hw value", &SpaceSpec{Axes: []AxisSpec{{Name: "pe_rows", Values: []int{0}}}}},
		{"bad version", &SpaceSpec{Version: 9, Axes: []AxisSpec{{Name: "layers", Values: []int{2}}}}},
	}
	for _, c := range cases {
		req := CoDesignRequest{Space: c.s}
		err := req.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var se *SpaceError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %T is not *SpaceError: %v", c.name, err, err)
		}
	}

	// Duplicate axes must be rejected even when one spelling equals the
	// default grid (normalization would otherwise fold it away).
	dup := CoDesignRequest{Space: &SpaceSpec{Axes: []AxisSpec{
		{Name: "layers", Values: dse.DefaultSpace().Layers},
		{Name: "layers", Values: []int{2, 4}},
	}}}
	var se *SpaceError
	if err := dup.Validate(); !errors.As(err, &se) {
		t.Fatalf("default-equal duplicate axis not rejected: %v", err)
	}
}

// TestSpaceTrainConflict: real Phase-1 training trains one algorithm, so an
// algorithm search axis alongside a train block must be rejected.
func TestSpaceTrainConflict(t *testing.T) {
	req := CoDesignRequest{
		Train: &TrainSpec{},
		Space: &SpaceSpec{Axes: []AxisSpec{{Name: "algorithm", Choices: []string{"dqn", "reinforce"}}}},
	}
	var se *SpaceError
	if err := req.Validate(); !errors.As(err, &se) {
		t.Fatalf("train + algorithm axis not rejected: %v", err)
	}
	// A train block with the algorithm axis pinned to dqn is the legacy
	// combination and stays valid.
	ok := CoDesignRequest{
		Train: &TrainSpec{},
		Space: &SpaceSpec{Axes: []AxisSpec{{Name: "algorithm", Choices: []string{"dqn"}}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("pinned-dqn train request rejected: %v", err)
	}
}

// TestSearchSpaceTranslation pins the wire→dse.Space mapping.
func TestSearchSpaceTranslation(t *testing.T) {
	req := CoDesignRequest{Space: &SpaceSpec{Axes: []AxisSpec{
		{Name: "algorithm", Choices: []string{"reinforce", "dqn"}},
		{Name: "layers", Values: []int{4, 2}},
		{Name: "pe_rows", Values: []int{8, 16}},
	}}}
	sp, err := req.SearchSpace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Algorithms, []string{"dqn", "reinforce"}) {
		t.Fatalf("algorithms = %v", sp.Algorithms)
	}
	if !reflect.DeepEqual(sp.Layers, []int{2, 4}) || !reflect.DeepEqual(sp.PERows, []int{8, 16}) {
		t.Fatalf("layers = %v, pe_rows = %v", sp.Layers, sp.PERows)
	}
	def := dse.DefaultSpace()
	if !reflect.DeepEqual(sp.Filters, def.Filters) || !reflect.DeepEqual(sp.SRAMKB, def.SRAMKB) {
		t.Fatal("unnamed axes lost their Table II defaults")
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}

	// Legacy request → exactly the default space.
	sp, err = CoDesignRequest{}.SearchSpace()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, def) {
		t.Fatal("legacy request does not search the default space")
	}
}

// TestSpaceJSONRoundTrip: the wire form survives marshal/unmarshal with the
// same normalized meaning — what the job server relies on.
func TestSpaceJSONRoundTrip(t *testing.T) {
	req := CoDesignRequest{Scenario: "dense", Space: &SpaceSpec{Axes: []AxisSpec{
		{Name: "algorithm", Choices: []string{"dqn", "reinforce"}},
		{Name: "layers", Values: []int{2, 4, 7}},
	}}}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back CoDesignRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != req.Hash() {
		t.Fatal("hash changed across JSON round trip")
	}
}

// TestParseSpaceFlags pins the CLI flag → space block assembly.
func TestParseSpaceFlags(t *testing.T) {
	s, err := ParseSpaceFlags("", nil)
	if err != nil || s != nil {
		t.Fatalf("empty flags: %+v, %v", s, err)
	}
	s, err = ParseSpaceFlags("dqn,reinforce", []string{"layers=2,4", "pe_rows=8,16,32"})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Axes) != 3 || s.Axes[0].Name != AxisAlgorithm || len(s.Axes[1].Values) != 2 {
		t.Fatalf("parsed = %+v", s)
	}
	if _, err := ParseSpaceFlags("", []string{"layers"}); err == nil {
		t.Fatal("missing '=' accepted")
	}
	for _, bad := range []string{"layers=two", "pe_rows=3.5", "pe_rows=12abc", "pe_rows=0x10"} {
		if _, err := ParseSpaceFlags("", []string{bad}); err == nil {
			t.Errorf("-axis %s accepted", bad)
		}
	}
}
