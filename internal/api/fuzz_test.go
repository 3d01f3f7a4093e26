package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCoDesignRequest feeds arbitrary bytes through the job server's
// request decoding (strict JSON, unknown fields refused) and checks the
// contract every decoded request must keep: Validate returns instead of
// panicking, Normalized is idempotent, Hash is the hash of the normalized
// request, and Hash ignores Constraints.Workers. Seeds live in
// testdata/fuzz/FuzzCoDesignRequest.
func FuzzCoDesignRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CoDesignRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		_ = req.Validate() // any error is an answer; a panic is the failure
		n := req.Normalized()
		if again := n.Normalized(); !reflect.DeepEqual(again, n) {
			t.Fatalf("Normalized is not idempotent:\n once  %+v\n twice %+v", n, again)
		}
		h := req.Hash()
		if nh := n.Hash(); nh != h {
			t.Fatalf("Hash %s, Normalized().Hash() %s, for %s", h, nh, data)
		}
		w := req
		w.Constraints.Workers = req.Constraints.Workers + 3
		if wh := w.Hash(); wh != h {
			t.Fatalf("Hash moved with Constraints.Workers %d -> %d: %s vs %s", req.Constraints.Workers, w.Constraints.Workers, h, wh)
		}
	})
}
