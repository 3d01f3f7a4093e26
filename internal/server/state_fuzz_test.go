package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		s, err := New(Config{StateDir: dir})
		if err != nil {
			t.Fatalf("New over a state dir holding %q: %v", name, err)
		}
		defer s.Close()
		switch n := s.store.Len(); {
		case n == 0:
			return
		case n > 1:
			t.Fatalf("one file loaded %d results", n)
		}
		hash, ok := strings.CutSuffix(name, ".json")
		if !ok {
			t.Fatalf("loaded a result from %q, which is not a .json file", name)
		}
		res, ok := s.store.Get(hash)
		if !ok {
			t.Fatalf("loaded a result from %q, but not under its hash %q", name, hash)
		}
		if res.RequestHash != hash {
			t.Fatalf("result with request hash %q loaded from %q", res.RequestHash, name)
		}
	})
}
