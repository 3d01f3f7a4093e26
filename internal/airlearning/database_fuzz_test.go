package airlearning

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDatabaseLoad writes arbitrary bytes as a checkpoint and loads it. Load
// must return a database or a *CorruptError, never panic; a corrupt file
// must be quarantined with its bytes intact; every loaded record must be
// reachable by Get, the lookup a resumed Phase-1 sweep skips trained
// records by, and must be one a trained policy can have — hyper-parameters
// in the model space, one of the three scenarios, a success rate in
// [0, 1]; and a loaded database must survive Snapshot and Load unchanged.
func FuzzDatabaseLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "db.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Load(path)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Load = %v, want a database or *CorruptError", err)
			}
			if ce.Quarantined != path+".corrupt" {
				t.Fatalf("Quarantined = %q, want %q", ce.Quarantined, path+".corrupt")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt file still at its path (stat: %v)", err)
			}
			if kept, err := os.ReadFile(ce.Quarantined); err != nil || !bytes.Equal(kept, data) {
				t.Fatalf("quarantine lost the damaged bytes (read: %v)", err)
			}
			return
		}
		recs := db.All()
		for _, r := range recs {
			if got, ok := db.Get(r.Hyper, r.Scenario); !ok || got != r {
				t.Fatalf("record %q unreachable: Get(%v, %v) = %+v, %v", r.ID, r.Hyper, r.Scenario, got, ok)
			}
			if err := r.Hyper.Validate(); err != nil {
				t.Fatalf("record %q loaded with invalid hyper-parameters: %v", r.ID, err)
			}
			if r.Scenario != LowObstacle && r.Scenario != MediumObstacle && r.Scenario != DenseObstacle {
				t.Fatalf("record %q loaded with scenario %d", r.ID, int(r.Scenario))
			}
			if math.IsNaN(r.SuccessRate) || r.SuccessRate < 0 || r.SuccessRate > 1 {
				t.Fatalf("record %q loaded with success rate %g", r.ID, r.SuccessRate)
			}
		}
		if err := db.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("reloading a snapshot: %v", err)
		}
		if !reflect.DeepEqual(again.All(), recs) {
			t.Fatalf("Snapshot and Load changed records:\n%+v\n%+v", recs, again.All())
		}
	})
}
