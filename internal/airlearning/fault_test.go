package airlearning

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autopilot/internal/policy"
)

func checkpointDB() *Database {
	db := NewDatabase()
	db.Put(Record{Hyper: policy.Hyper{Layers: 2, Filters: 32}, Scenario: LowObstacle, SuccessRate: 0.5, Params: 100, TrainSteps: 10})
	db.Put(Record{Hyper: policy.Hyper{Layers: 4, Filters: 48}, Scenario: DenseObstacle, SuccessRate: 0.75, Params: 200, TrainSteps: 20})
	return db
}

// TestCheckpointChecksumRoundTrip pins the v2 format: snapshots carry the
// checksum header and load back to the identical record set.
func TestCheckpointChecksumRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.json")
	db := checkpointDB()
	if err := db.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), checkpointMagic) {
		t.Fatalf("snapshot lacks the v2 checksum header: %q", data[:40])
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.All(), loaded.All()) {
		t.Fatalf("round trip changed records:\n%+v\n%+v", db.All(), loaded.All())
	}
}

// TestCheckpointLegacyJSONLoads keeps pre-checksum checkpoints (plain JSON,
// no header) loadable.
func TestCheckpointLegacyJSONLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	db := checkpointDB()
	payload, err := encodeCheckpoint(db.All())
	if err != nil {
		t.Fatal(err)
	}
	// Strip the header to reconstruct the legacy format.
	body := payload[strings.IndexByte(string(payload), '\n')+1:]
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if !reflect.DeepEqual(db.All(), loaded.All()) {
		t.Fatal("legacy load changed records")
	}
}

// TestCheckpointCorruptionQuarantined damages a snapshot in several ways and
// checks each one is detected, quarantined to <path>.corrupt with its bytes
// intact, and reported as a *CorruptError.
func TestCheckpointCorruptionQuarantined(t *testing.T) {
	clean, err := encodeCheckpoint(checkpointDB().All())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)*2/3] },
		"bitflip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
		"bad-header-sum": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c[len(checkpointMagic):], "00000000")
			return c
		},
		"garbage": func([]byte) []byte { return []byte("{not json") },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.json")
			bad := corrupt(clean)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Load = %v, want *CorruptError", err)
			}
			if ce.Quarantined != path+".corrupt" {
				t.Fatalf("Quarantined = %q, want %q", ce.Quarantined, path+".corrupt")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt file still at original path (stat err %v)", err)
			}
			kept, err := os.ReadFile(ce.Quarantined)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(kept, bad) {
				t.Fatal("quarantine altered the damaged bytes (forensics lost)")
			}
			// The path is now free: a fresh snapshot must succeed and load.
			if err := checkpointDB().Snapshot(path); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err != nil {
				t.Fatalf("rewritten checkpoint rejected: %v", err)
			}
		})
	}
}

// TestCheckpointInvalidRecordQuarantined loads checkpoints that parse but
// hold a record no trained policy can have. Each must fail as a
// *CorruptError naming the record and be quarantined, in the legacy format
// and, with a valid checksum, in v2. The first file is a legacy checkpoint
// whose L-3F7 record at 5.0, if loaded, is what Best(DenseObstacle) returns
// over the valid L4F48 at 0.8.
func TestCheckpointInvalidRecordQuarantined(t *testing.T) {
	valid := Record{Hyper: policy.Hyper{Layers: 4, Filters: 48}, Scenario: DenseObstacle, SuccessRate: 0.8}
	cases := []struct {
		name, record string
		bad          Record
	}{
		{"hyper and success rate", "record 0 (dense-obstacle/L-3F7)", Record{Hyper: policy.Hyper{Layers: -3, Filters: 7}, Scenario: DenseObstacle, SuccessRate: 5}},
		{"filters", "record 0 (dense-obstacle/L4F40)", Record{Hyper: policy.Hyper{Layers: 4, Filters: 40}, Scenario: DenseObstacle, SuccessRate: 0.5}},
		{"scenario", "record 0 (Scenario(99)/L4F48)", Record{Hyper: valid.Hyper, Scenario: 99, SuccessRate: 0.5}},
		{"negative success rate", "record 0 (low-obstacle/L2F32)", Record{Hyper: policy.Hyper{Layers: 2, Filters: 32}, Scenario: LowObstacle, SuccessRate: -0.25}},
	}
	for _, c := range cases {
		for _, legacy := range []bool{true, false} {
			name := c.name + "/v2"
			if legacy {
				name = c.name + "/legacy"
			}
			t.Run(name, func(t *testing.T) {
				data, err := encodeCheckpoint([]Record{c.bad, valid})
				if err != nil {
					t.Fatal(err)
				}
				if legacy {
					data = data[strings.IndexByte(string(data), '\n')+1:]
				}
				path := filepath.Join(t.TempDir(), "db.json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				db, err := Load(path)
				var ce *CorruptError
				if !errors.As(err, &ce) {
					best, _ := db.Best(DenseObstacle)
					t.Fatalf("Load = %v, want *CorruptError; Best(DenseObstacle) is %+v", err, best)
				}
				if !strings.Contains(err.Error(), c.record) {
					t.Fatalf("error %q does not name %s", err, c.record)
				}
				if ce.Quarantined != path+".corrupt" {
					t.Fatalf("Quarantined = %q, want %q", ce.Quarantined, path+".corrupt")
				}
				if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("invalid checkpoint still at its path (stat err %v)", err)
				}
			})
		}
	}
}

// TestTryResetUnsolvableLayout drives layout generation into a configuration
// with (effectively) no solvable episodes: giant random obstacles that bury
// the arena every draw. TryReset must stop after its bounded budget with a
// typed *LayoutError, and Reset must surface the same error as a panic.
func TestTryResetUnsolvableLayout(t *testing.T) {
	cfg := EnvConfig{ArenaW: 11, ArenaH: 11, ObstacleSize: 22, RandomMax: 2000, MaxSteps: 10}
	env := NewEnvWithConfig(LowObstacle, cfg, 7)
	_, err := env.TryReset()
	var le *LayoutError
	if !errors.As(err, &le) {
		t.Fatalf("TryReset = %v, want *LayoutError", err)
	}
	if le.Scenario != LowObstacle || le.Attempts != 108 {
		t.Fatalf("LayoutError = %+v, want low scenario after 108 bounded attempts", le)
	}

	defer func() {
		v := recover()
		if _, ok := v.(*LayoutError); !ok {
			t.Fatalf("Reset panicked with %v, want *LayoutError", v)
		}
	}()
	NewEnvWithConfig(LowObstacle, cfg, 7).Reset()
	t.Fatal("Reset returned from an unsolvable configuration")
}

// TestTryResetDeterministic checks that bounded layout generation stays a
// pure function of (seed, episode): two envs with the same seed draw the
// same start and goal every episode.
func TestTryResetDeterministic(t *testing.T) {
	a := NewEnv(DenseObstacle, 3)
	b := NewEnv(DenseObstacle, 3)
	for ep := 0; ep < 5; ep++ {
		if _, err := a.TryReset(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.TryReset(); err != nil {
			t.Fatal(err)
		}
		if a.Pos() != b.Pos() || a.Goal() != b.Goal() {
			t.Fatalf("episode %d: layouts diverged: %v/%v vs %v/%v", ep, a.Pos(), a.Goal(), b.Pos(), b.Goal())
		}
	}
}
