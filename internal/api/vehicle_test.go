package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"autopilot/internal/catalog"
	"autopilot/internal/core"
	"autopilot/internal/obs"
)

// TestVehicleBlockNormalization: a vehicle block that opens no axis
// normalizes away entirely, so it hashes identically to a legacy request;
// any non-empty axis — even a single pinned entry — diverges the hash.
func TestVehicleBlockNormalization(t *testing.T) {
	legacy := CoDesignRequest{UAVClass: "nano", Scenario: "dense", Seed: 1}
	empty := legacy
	empty.Vehicle = &VehicleSpec{}
	if empty.Normalized().Vehicle != nil {
		t.Fatal("empty vehicle block did not normalize away")
	}
	if legacy.Hash() != empty.Hash() {
		t.Fatalf("empty vehicle block changed the hash:\n%s\n%s", legacy.Hash(), empty.Hash())
	}
	versioned := legacy
	versioned.Vehicle = &VehicleSpec{Version: VehicleVersion}
	if legacy.Hash() != versioned.Hash() {
		t.Fatal("versioned-but-empty vehicle block changed the hash")
	}

	pinned := legacy
	pinned.Vehicle = &VehicleSpec{Batteries: []string{"lipo-1s-500"}}
	if n := pinned.Normalized().Vehicle; n == nil {
		t.Fatal("single-battery block normalized away — a pinned battery still changes the objectives")
	}
	if legacy.Hash() == pinned.Hash() {
		t.Fatal("pinned-battery request hashes like a legacy request")
	}

	// Normalization dedupes, lowercases, and sorts entry names.
	messy := legacy
	messy.Vehicle = &VehicleSpec{Sensors: []string{"OV9755", " lowlight-vga ", "ov9755"}}
	n := messy.Normalized().Vehicle
	if n == nil || !reflect.DeepEqual(n.Sensors, []string{"lowlight-vga", "ov9755"}) {
		t.Fatalf("messy sensor list normalized to %+v", n)
	}
}

// TestVehicleValidationTyped: unknown entries and bad versions surface as
// typed *VehicleError values naming the offending axis.
func TestVehicleValidationTyped(t *testing.T) {
	req := CoDesignRequest{UAVClass: "nano", Scenario: "dense", Seed: 1,
		Vehicle: &VehicleSpec{Batteries: []string{"fusion-cell"}}}
	err := req.Validate()
	var verr *VehicleError
	if !errors.As(err, &verr) {
		t.Fatalf("untyped vehicle error: %v", err)
	}
	if verr.Axis != VehicleAxisBattery {
		t.Fatalf("error names axis %q, want %q", verr.Axis, VehicleAxisBattery)
	}
	req.Vehicle = &VehicleSpec{Version: 99, Batteries: []string{"lipo-1s-500"}}
	if !errors.As(req.Validate(), &verr) {
		t.Fatal("bad version not rejected with a typed error")
	}
}

// TestParseVehicleFlags: the -vehicle-axes CLI surface — empty means legacy,
// named axes open the full catalog, unknown names fail typed.
func TestParseVehicleFlags(t *testing.T) {
	if v, err := ParseVehicleFlags(""); v != nil || err != nil {
		t.Fatalf("empty flag = (%+v, %v), want (nil, nil)", v, err)
	}
	v, err := ParseVehicleFlags("battery, sensor")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Batteries, catalog.BatteryNames()) {
		t.Fatalf("batteries = %v, want full catalog", v.Batteries)
	}
	if !reflect.DeepEqual(v.Sensors, catalog.SensorNames()) {
		t.Fatalf("sensors = %v, want full catalog", v.Sensors)
	}
	if len(v.Airframes) != 0 {
		t.Fatalf("airframe axis opened unasked: %v", v.Airframes)
	}
	var verr *VehicleError
	if _, err := ParseVehicleFlags("battery,warp-drive"); !errors.As(err, &verr) {
		t.Fatalf("unknown axis error untyped: %v", err)
	}
}

// TestVehicleSearchSpace: the vehicle block lands on the dse space with the
// base airframe anchored by UAV class, and the manifest names the open axes.
func TestVehicleSearchSpace(t *testing.T) {
	req := CoDesignRequest{UAVClass: "micro", Scenario: "dense", Seed: 1,
		Vehicle: &VehicleSpec{Batteries: []string{"lipo-1s-500", "lipo-1s-250"}}}
	sp, err := req.SearchSpace()
	if err != nil {
		t.Fatal(err)
	}
	if !sp.HasVehicleAxes() {
		t.Fatal("space has no vehicle axes")
	}
	if !reflect.DeepEqual(sp.Batteries, []string{"lipo-1s-250", "lipo-1s-500"}) {
		t.Fatalf("batteries = %v", sp.Batteries)
	}
	if sp.BaseAirframe != "spark" {
		t.Fatalf("micro base airframe = %q, want spark", sp.BaseAirframe)
	}
	if got := req.ManifestConfig()["vehicle_axes"]; got != "battery" {
		t.Fatalf("manifest vehicle_axes = %v, want battery", got)
	}
	legacy := CoDesignRequest{UAVClass: "micro", Scenario: "dense", Seed: 1}
	if got := legacy.ManifestConfig()["vehicle_axes"]; got != "" {
		t.Fatalf("legacy manifest vehicle_axes = %v, want empty", got)
	}
}

// vehicleJSON is a full-vehicle co-design request over the wire — the shape
// the CI smoke step posts to autopilotd.
const vehicleJSON = `{
  "uav": "nano",
  "scenario": "dense",
  "seed": 1,
  "constraints": {"candidate_pool": 192, "bo_iterations": 6},
  "vehicle": {
    "version": 1,
    "batteries": ["lipo-1s-250", "lipo-1s-500", "lipo-1s-750"],
    "sensors": ["ov9755", "lowlight-vga", "gs-wvga-120"]
  }
}`

// TestVehicleGoldenCompat is the compatibility contract of the catalog
// layer: a vehicle run is byte-identical at workers=1 and workers=8, its
// hash and result diverge from the legacy request, the front holds at least
// two distinct loadouts, and every skip is a typed record — never a scored
// point. (TestLegacySpaceGolden separately pins that requests without the
// block are bitwise unchanged.)
func TestVehicleGoldenCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	var legacy, vehicle CoDesignRequest
	if err := json.Unmarshal([]byte(legacyJSON), &legacy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(vehicleJSON), &vehicle); err != nil {
		t.Fatal(err)
	}
	if legacy.Hash() == vehicle.Hash() {
		t.Fatal("vehicle request hashes like the legacy request")
	}

	var golden []byte
	var goldenRes Result
	for _, workers := range []int{1, 8} {
		req := vehicle
		req.Constraints.Workers = workers
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res := NewResult(req, rep, obs.Manifest{
			Tool: "test", Status: "ok",
			Config: req.ManifestConfig(), Seeds: req.ManifestSeeds(),
		})
		res.Manifest.Config["workers"] = 0
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden, goldenRes = data, res
			continue
		}
		if !bytes.Equal(data, golden) {
			t.Fatalf("vehicle run at workers=%d is not bitwise-identical to workers=1", workers)
		}
	}

	loadouts := map[[3]string]bool{}
	for _, p := range goldenRes.Pareto {
		if p.Airframe == "" || p.Battery == "" || p.Sensor == "" {
			t.Fatalf("pareto point %+v missing loadout columns", p)
		}
		loadouts[[3]string{p.Airframe, p.Battery, p.Sensor}] = true
	}
	if len(loadouts) < 2 {
		t.Fatalf("front holds %d distinct loadouts, want >= 2", len(loadouts))
	}
	scored := map[string]bool{}
	for _, p := range goldenRes.Pareto {
		scored[p.Model+"|"+p.Hardware] = true
	}
	for _, sk := range goldenRes.Skips {
		if sk.Reason != "weight" && sk.Reason != "thrust" && sk.Reason != "power" {
			t.Fatalf("skip %s has unknown reason %q", sk.Design, sk.Reason)
		}
	}
	sum := goldenRes.Report.Selected
	if sum.Airframe == "" || sum.Battery == "" || sum.Sensor == "" || sum.TotalWeightG <= 0 {
		t.Fatalf("selected summary missing loadout columns: %+v", sum)
	}

	// The legacy request's summary must not carry the new columns.
	var legacySum core.SelectionSummary
	b, err := json.Marshal(legacySum)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("airframe")) {
		t.Fatal("zero SelectionSummary serializes loadout columns (omitempty broken)")
	}
}

// TestPhasesAgreeOnVehicleDesigns: Phase 2 ranks vehicle designs with the
// same loadout evaluation Phase 3 selects them with, at the request's sensor
// rate. For every untuned, liftable Phase-3 candidate, the missions, safe
// velocity and total draw Phase 2 filed must equal Phase 3's bit for bit,
// with and without a sensor_fps constraint.
func TestPhasesAgreeOnVehicleDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, fps := range []float64{0, 30} {
		req := CoDesignRequest{
			UAVClass: "nano", Scenario: "dense", Seed: 1,
			Constraints: Constraints{CandidatePool: 512, BOIterations: 24, SensorFPS: fps},
			Vehicle: &VehicleSpec{
				Batteries: []string{"lipo-1s-500", "lipo-1s-750"},
				Sensors:   []string{"ov9755", "gs-wvga-120"},
			},
		}
		spec, err := req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		top := rep.Phase2.TopSuccess(0.02)
		if len(top) != len(rep.Candidates) {
			t.Fatalf("sensor_fps %g: %d top-success designs, %d Phase-3 candidates", fps, len(top), len(rep.Candidates))
		}
		liftable := 0
		for k, i := range top {
			sel := rep.Candidates[k]
			if !sel.Liftable {
				continue
			}
			liftable++
			p2, p3 := rep.Phase2.Evaluated[i].Vehicle, sel.Design.Vehicle
			if p2.Missions != p3.Missions || p2.VSafeMS != p3.VSafeMS || p2.TotalPowerW != p3.TotalPowerW {
				t.Errorf("sensor_fps %g: %s: Phase 2 filed %v missions, %v m/s, %v W; Phase 3 flew %v missions, %v m/s, %v W",
					fps, sel.Design.Design, p2.Missions, p2.VSafeMS, p2.TotalPowerW, p3.Missions, p3.VSafeMS, p3.TotalPowerW)
			}
		}
		if liftable == 0 {
			t.Fatalf("sensor_fps %g: no liftable Phase-3 candidate to compare", fps)
		}
	}
}
