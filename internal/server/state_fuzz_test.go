package server

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autopilot/internal/api"
)

// FuzzStateDir writes one file, with an arbitrary name and arbitrary bytes,
// into an autopilotd state dir and warm-loads the dir. New, and so
// loadState, must succeed and never panic: a damaged or foreign file costs a
// recomputation, never availability. The store may hold a result only under
// its own file's hash: the file is <hash>.json and the result's
// RequestHash is that hash.
func FuzzStateDir(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if name != filepath.Base(name) || name == "." || name == ".." {
			t.Skip("not a file name inside the state dir")
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Skip("a name this file system refuses")
		}
		// A one-entry store evicts, and counts, any second result.
		s, err := New(Config{StateDir: dir, CacheCap: 1})
		if err != nil {
			t.Fatalf("New over a state dir holding %q: %v", name, err)
		}
		defer s.Close()
		if n := s.reg.Counter("server.cache.evictions").Value(); n > 0 {
			t.Fatalf("one file loaded %d results", n+1)
		}
		// A loaded result sits under its request hash or its file's name;
		// probe both with a computation that must not run.
		var decoded api.Result
		_ = json.Unmarshal(data, &decoded)
		for _, key := range []string{decoded.RequestHash, strings.TrimSuffix(name, ".json")} {
			res, held, _ := s.store.Do(context.Background(), key, func() (api.Result, error) {
				return api.Result{}, errors.New("not loaded")
			})
			if !held {
				continue
			}
			if name != key+".json" {
				t.Fatalf("loaded a result from %q under the key %q", name, key)
			}
			if res.RequestHash != key {
				t.Fatalf("result with request hash %q loaded from %q", res.RequestHash, name)
			}
		}
	})
}
