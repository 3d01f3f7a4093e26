package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSpanChildSharesLane(t *testing.T) {
	tr := NewTracer()
	root := tr.Span("phase1", "phase")
	child := root.Child("step", "phase")
	child.End()
	root.End()

	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	c, r := tr.spans[0], tr.spans[1]
	if c.tid != r.tid {
		t.Fatalf("child tid %d != parent tid %d", c.tid, r.tid)
	}
	// The viewer nests by time containment: the child's interval must lie
	// inside the parent's.
	if c.start < r.start || c.start+c.dur > r.start+r.dur {
		t.Fatalf("child [%v,+%v] not contained in parent [%v,+%v]", c.start, c.dur, r.start, r.dur)
	}
}

func TestSpanRootsGetDistinctLanes(t *testing.T) {
	tr := NewTracer()
	a := tr.Span("a", "run")
	b := tr.Span("b", "run")
	if a.tid == b.tid {
		t.Fatalf("two root spans share tid %d", a.tid)
	}
	a.End()
	b.End()
}

func TestSpanForkLanes(t *testing.T) {
	tr := NewTracer()
	root := tr.Span("sweep", "phase")

	// Two concurrent forks must land on distinct lanes above laneBase.
	j1 := root.Fork("job1", "job")
	j2 := root.Fork("job2", "job")
	if j1.tid < laneBase || j2.tid < laneBase {
		t.Fatalf("fork tids %d/%d below laneBase %d", j1.tid, j2.tid, laneBase)
	}
	if j1.tid == j2.tid {
		t.Fatalf("concurrent forks share lane tid %d", j1.tid)
	}

	// After both end, the next fork reuses the lowest freed lane.
	j1.End()
	j2.End()
	time.Sleep(time.Millisecond) // ensure the new start time is past busy-until
	j3 := root.Fork("job3", "job")
	if j3.tid != j1.tid {
		t.Fatalf("fork after drain got tid %d, want reused lane %d", j3.tid, j1.tid)
	}
	j3.End()
	root.End()
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	s := tr.Span("once", "test")
	s.End()
	s.End()
	s.End()
	if got := len(tr.Durations("test")); got != 1 {
		t.Fatalf("span recorded %d times, want 1", got)
	}
}

func TestDurationsEndOrder(t *testing.T) {
	tr := NewTracer()
	outer := tr.Span("outer", "phase")
	inner := outer.Child("inner", "phase")
	other := tr.Span("other", "misc")
	inner.End()
	other.End()
	outer.End()

	ds := tr.Durations("phase")
	if len(ds) != 2 || ds[0].Name != "inner" || ds[1].Name != "outer" {
		t.Fatalf("durations = %+v, want [inner outer]", ds)
	}
	if ds[1].Seconds < ds[0].Seconds {
		t.Fatalf("outer (%v s) shorter than inner (%v s)", ds[1].Seconds, ds[0].Seconds)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer()
	root := tr.Span("phase1", "phase")
	job := root.Fork("job", "train")
	job.End()
	root.End()
	open := tr.Span("open", "phase") // still open: must be excluded
	defer open.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			PID  int               `json:"pid"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace output does not parse: %v\n%s", err, buf.String())
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	if len(file.TraceEvents) != 2 {
		t.Fatalf("exported %d events, want 2 (open span must be excluded)", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("event %+v: want ph=X pid=1", ev)
		}
		if ev.Name == "open" {
			t.Fatal("open span leaked into the export")
		}
	}
	// End order: the forked job ends first.
	if file.TraceEvents[0].Name != "job" || file.TraceEvents[0].TID != laneBase {
		t.Fatalf("first event = %+v, want job on lane %d", file.TraceEvents[0], laneBase)
	}
	if ev := file.TraceEvents[1]; ev.Name != "phase1" || len(ev.Args) != 0 {
		t.Fatalf("second event = %+v, want phase1 with no args", ev)
	}
}

func TestNilTracerWritesEmptyTrace(t *testing.T) {
	var tr *Tracer
	s := tr.Span("x", "y")
	s.Child("c", "y").End()
	s.Fork("f", "y").End()
	s.End()
	if tr.Durations("y") != nil {
		t.Fatal("nil tracer returned durations")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("nil trace output does not parse: %v", err)
	}
	if evs, ok := file["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("nil trace events = %v, want empty array", file["traceEvents"])
	}
}

func TestManifestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest.json")
	m := &Manifest{
		Tool:        "autopilot",
		Args:        []string{"-scenario", "dense"},
		Start:       time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		End:         time.Date(2026, 8, 6, 12, 0, 5, 0, time.UTC),
		DurationSec: 5,
		Status:      "ok",
		Config:      map[string]any{"pool": 2048},
		Seeds:       map[string]int64{"seed": 1},
		Phases:      []SpanDuration{{Name: "phase1", Seconds: 2.5}},
		Failures:    []FailureRecord{{Job: "train 4L", Kind: "panic", Attempts: 3, Cause: "boom"}},
		Events:      []RunEvent{{Kind: "checkpoint-quarantined", Detail: "db.corrupt"}},
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest does not parse: %v\n%s", err, data)
	}
	if back.Tool != m.Tool || back.Status != m.Status || back.DurationSec != m.DurationSec {
		t.Fatalf("round trip = %+v", back)
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "phase1" {
		t.Fatalf("phases = %+v", back.Phases)
	}
	if len(back.Failures) != 1 || back.Failures[0].Kind != "panic" {
		t.Fatalf("failures = %+v", back.Failures)
	}
	if len(back.Events) != 1 || back.Events[0].Kind != "checkpoint-quarantined" {
		t.Fatalf("events = %+v", back.Events)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries after write, want 1", len(entries))
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs").Add(9)
	addr, closeFn, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer closeFn() //nolint:errcheck

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/metrics"), &snap); err != nil {
		t.Fatalf("/debug/metrics does not parse: %v", err)
	}
	if snap.Counters["jobs"] != 9 {
		t.Fatalf("/debug/metrics counters = %v", snap.Counters)
	}
	var vars map[string]any
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars does not parse: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	get("/debug/pprof/")
}
