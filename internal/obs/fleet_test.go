package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// exportEvents round-trips the tracer through its JSON export and returns the
// decoded events.
func exportEvents(t *testing.T, tr *Tracer) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file traceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	return file.TraceEvents
}

func workerSnap(c int64) Snapshot {
	return Snapshot{
		Counters:   map[string]int64{"jobs": c},
		Gauges:     map[string]float64{"queue": float64(c)},
		Histograms: map[string]HistogramSnapshot{"lat": {Bounds: []float64{1, 2}, Counts: []int64{c, 0, 0}, Count: c, Sum: float64(c)}},
	}
}

func TestFleetLatestSnapshotWins(t *testing.T) {
	f := NewFleet()
	if sk := f.Update("w1", 1, workerSnap(5)); len(sk) != 0 {
		t.Fatalf("clean update skipped: %v", sk)
	}
	f.Update("w1", 3, workerSnap(9))

	// A duplicated (re-delivered) older heartbeat must not roll state back or
	// double-count.
	f.Update("w1", 2, workerSnap(7))
	f.Update("w1", 3, workerSnap(999))

	snap, ok := f.Worker("w1")
	if !ok {
		t.Fatal("worker unknown after updates")
	}
	if snap.Counters["jobs"] != 9 {
		t.Errorf("jobs = %d, want 9 (latest seq wins, stale ignored)", snap.Counters["jobs"])
	}

	// Cumulative replace, never re-add: each worker's labeled series carries
	// exactly its latest snapshot.
	f.Update("w2", 1, workerSnap(4))
	l := f.Labeled()
	if l.Counters["jobs;worker=w1"] != 9 || l.Counters["jobs;worker=w2"] != 4 {
		t.Errorf("labeled jobs = %v, want w1=9 w2=4", l.Counters)
	}
	if l.Histograms["lat;worker=w1"].Count != 9 {
		t.Errorf("w1 histogram count = %d, want 9", l.Histograms["lat;worker=w1"].Count)
	}
	if len(l.Counters) != 2 {
		t.Errorf("labeled counters = %v, want one series per worker", l.Counters)
	}
}

func TestFleetSkipsMismatchedLayouts(t *testing.T) {
	f := NewFleet()
	f.Update("w1", 1, workerSnap(1)) // pins lat's layout to bounds {1,2}

	bad := workerSnap(1)
	bad.Histograms["lat"] = HistogramSnapshot{Bounds: []float64{1, 5}, Counts: []int64{1, 0, 0}, Count: 1, Sum: 1}
	skipped := f.Update("w2", 1, bad)
	if len(skipped) != 1 {
		t.Fatalf("skipped = %v, want exactly the mismatched instrument", skipped)
	}
	me := skipped[0]
	if me.Instrument != "lat" || me.Index != 1 || me.WantBound != 2 || me.GotBound != 5 {
		t.Errorf("MergeError fields = %+v", me)
	}
	if f.Skipped() != 1 {
		t.Errorf("Skipped() = %d, want 1", f.Skipped())
	}

	// The rest of w2's snapshot survives — skip one instrument, not the worker.
	snap, _ := f.Worker("w2")
	if snap.Counters["jobs"] != 1 {
		t.Error("counter lost alongside the skipped histogram")
	}
	if _, ok := snap.Histograms["lat"]; ok {
		t.Error("mismatched histogram kept in the stored snapshot")
	}
	// And no conflicting layout reaches the exposition view.
	l := f.Labeled()
	if l.Histograms["lat;worker=w1"].Count != 1 {
		t.Errorf("w1 histogram = %+v, want its count of 1", l.Histograms["lat;worker=w1"])
	}
	if _, ok := l.Histograms["lat;worker=w2"]; ok {
		t.Error("skipped histogram reached the labeled view")
	}
}

func TestFleetLabeledSeries(t *testing.T) {
	f := NewFleet()
	f.Update("w1", 1, workerSnap(2))
	f.Update("w2", 1, workerSnap(3))
	l := f.Labeled()
	if l.Counters["jobs;worker=w1"] != 2 || l.Counters["jobs;worker=w2"] != 3 {
		t.Errorf("labeled counters = %v", l.Counters)
	}
	if _, ok := l.Histograms["lat;worker=w1"]; !ok {
		t.Errorf("labeled histograms = %v", l.Histograms)
	}
}

func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	if sk := f.Update("w", 1, workerSnap(1)); sk != nil {
		t.Error("nil fleet returned skips")
	}
	if f.Skipped() != 0 {
		t.Error("nil fleet counts skips")
	}
	if _, ok := f.Worker("w"); ok {
		t.Error("nil fleet knows a worker")
	}
	l := f.Labeled()
	if len(l.Counters) != 0 || len(l.Gauges) != 0 || len(l.Histograms) != 0 {
		t.Error("nil fleet labeled view non-empty")
	}
}

// TestHistogramMergeTypedError pins the typed contract of federation: a
// layout mismatch surfaces as *MergeError through errors.As, carrying the
// disagreeing bound or, when the bucket counts differ, Index -1.
func TestHistogramMergeTypedError(t *testing.T) {
	snap := func(bounds ...float64) Snapshot {
		return Snapshot{Histograms: map[string]HistogramSnapshot{
			"lat": {Bounds: bounds, Counts: make([]int64, len(bounds)+1)},
		}}
	}
	f := NewFleet()
	f.Update("w0", 1, snap(1, 2, 3))

	skipped := f.Update("w1", 1, snap(1, 2.5, 3))
	if len(skipped) != 1 {
		t.Fatalf("mismatched layout not skipped: %v", skipped)
	}
	var err error = skipped[0]
	var me *MergeError
	if !errors.As(err, &me) {
		t.Fatalf("error %T is not *MergeError", err)
	}
	if me.Index != 1 || me.WantBound != 2 || me.GotBound != 2.5 {
		t.Errorf("MergeError = %+v", me)
	}
	if !strings.Contains(me.Error(), "lat") {
		t.Errorf("error %q does not name the instrument", me.Error())
	}

	skipped = f.Update("w2", 1, snap(1, 2))
	if len(skipped) != 1 {
		t.Fatal("different bucket counts not skipped")
	}
	if me := skipped[0]; me.Index != -1 || me.WantBounds != 3 || me.GotBounds != 2 {
		t.Errorf("count-mismatch MergeError = %+v", me)
	}
}

func TestTracerIngestAndMergedExport(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName(LocalPID, "coordinator")
	tr.SetProcessName(2, "worker w0")
	root := tr.Span("sweep", "phase")
	root.End()

	// A remote span that started before the trace's base clamps to zero
	// instead of rendering at a negative timestamp.
	base := tr.base.UnixNano()
	tr.Ingest(2, root, WireSpan{Name: "early", Cat: "grid", TID: 3, StartUnixNano: base - 1e9, DurNanos: 10})
	tr.Ingest(2, nil, WireSpan{Name: "late", Cat: "grid", TID: 4, StartUnixNano: base + 1e6, DurNanos: 20000,
		Args: map[string]string{"b": "2", "a": "1"}})

	evs := exportEvents(t, tr)
	byName := map[string]traceEvent{}
	procs := 0
	for _, e := range evs {
		if e.Ph == "M" {
			procs++
			continue
		}
		byName[e.Name] = e
	}
	if procs != 2 {
		t.Errorf("process_name events = %d, want 2", procs)
	}
	early, ok := byName["early"]
	if !ok {
		t.Fatal("ingested span missing from export")
	}
	if early.PID != 2 || early.TS != 0 {
		t.Errorf("early span pid=%d ts=%v, want pid 2 ts clamped to 0", early.PID, early.TS)
	}
	if early.Args["parent_span"] != "sweep" {
		t.Errorf("parent annotation = %q, want the parent span's name", early.Args["parent_span"])
	}
	late := byName["late"]
	if late.Args["a"] != "1" || late.Args["b"] != "2" {
		t.Errorf("ingested args lost: %v", late.Args)
	}
	if _, ok := late.Args["parent_span"]; ok {
		t.Error("parentless span annotated with a parent")
	}
	if late.TS != 1000 || late.Dur != 20 {
		t.Errorf("late span ts=%vus dur=%vus, want 1000 and 20", late.TS, late.Dur)
	}
	if local := byName["sweep"]; local.PID != LocalPID {
		t.Errorf("local span pid = %d, want %d", local.PID, LocalPID)
	}
}
