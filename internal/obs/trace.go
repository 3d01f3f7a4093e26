package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sync"
	"time"
)

// Tracer records spans against one monotonic clock and exports them in the
// Chrome trace_event JSON format, loadable in chrome://tracing or Perfetto.
// Spans are cheap (one mutex acquisition at start and one at end) and the
// tracer is safe for concurrent use; a nil *Tracer no-ops everywhere.
//
// Lane model: spans carry a "tid" so the viewer stacks them into rows.
// Child spans share their parent's lane — sequential steps nest by time
// containment — while Fork assigns a fanned-out job the lowest free lane, so
// a sweep at concurrency N renders as exactly N job rows under its phase.
type Tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []spanRecord
	// roots is the next root-span lane; forked job lanes live above
	// laneBase and are reused once their previous occupant ends.
	roots int64
	lanes []time.Duration // lane -> busy-until (laneForever while open)
	// procs names the non-default pid lanes remote span ingestion creates
	// (pid -> process name, rendered as trace metadata).
	procs map[int]string
}

// laneBase offsets forked job lanes away from root/step lanes so phase rows
// sort above job rows in the viewer.
const laneBase = 1000

// laneForever marks a lane occupied by a still-open span.
const laneForever = time.Duration(math.MaxInt64)

// LocalPID is the trace pid of spans recorded in this process; remote span
// ingestion places each worker on its own pid above it.
const LocalPID = 1

// spanRecord is one completed span.
type spanRecord struct {
	name  string
	cat   string
	pid   int // 0 renders as LocalPID
	tid   int64
	start time.Duration
	dur   time.Duration
	args  []spanArg
}

type spanArg struct{ k, v string }

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// Span is one in-flight timed operation. End records it; a nil *Span no-ops
// on every method, so disabled tracing costs nothing on instrumented paths.
type Span struct {
	tr    *Tracer
	name  string
	cat   string
	tid   int64
	lane  int // forked lane index to release on End; -1 otherwise
	start time.Duration

	mu    sync.Mutex
	ended bool
}

// Span starts a root span on its own lane; nil-safe.
func (t *Tracer) Span(name, cat string) *Span {
	if t == nil {
		return nil
	}
	start := time.Since(t.base)
	t.mu.Lock()
	t.roots++
	tid := t.roots
	t.mu.Unlock()
	return &Span{tr: t, name: name, cat: cat, tid: tid, lane: -1, start: start}
}

// Child starts a span nested under s on the same lane — for sequential
// sub-steps, which the trace viewer nests by time containment. Nil-safe.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, name: name, cat: cat, tid: s.tid, lane: -1, start: time.Since(s.tr.base)}
}

// Fork starts a span for work running concurrently with s's other children:
// it claims the lowest lane that is free at its start time, so parallel jobs
// render side by side instead of falsely nesting. Nil-safe.
func (s *Span) Fork(name, cat string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr
	start := time.Since(t.base)
	t.mu.Lock()
	lane := -1
	for i, busy := range t.lanes {
		if busy <= start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(t.lanes)
		t.lanes = append(t.lanes, 0)
	}
	t.lanes[lane] = laneForever
	t.mu.Unlock()
	return &Span{tr: t, name: name, cat: cat, tid: laneBase + int64(lane), lane: lane, start: start}
}

// End records the span. Ending a span twice records it once; ending a nil
// span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()

	t := s.tr
	end := time.Since(t.base)
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		name: s.name, cat: s.cat, tid: s.tid,
		start: s.start, dur: end - s.start,
	})
	if s.lane >= 0 {
		t.lanes[s.lane] = end
	}
	t.mu.Unlock()
}

// SpanDuration is one completed span's name and wall time — what run
// manifests record for phases.
type SpanDuration struct {
	Name     string  `json:"name"`
	StartSec float64 `json:"start_sec"`
	Seconds  float64 `json:"seconds"`
}

// Durations returns the completed spans of one category in end order. A nil
// tracer returns nil.
func (t *Tracer) Durations(cat string) []SpanDuration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanDuration
	for _, r := range t.spans {
		if r.cat == cat {
			out = append(out, SpanDuration{
				Name:     r.name,
				StartSec: r.start.Seconds(),
				Seconds:  r.dur.Seconds(),
			})
		}
	}
	return out
}

// SetProcessName labels a trace pid lane (rendered as a process_name
// metadata event), so a merged fleet trace shows "coordinator", "worker w1",
// … instead of bare pid numbers. Nil-safe.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.procs == nil {
		t.procs = map[int]string{}
	}
	t.procs[pid] = name
	t.mu.Unlock()
}

// Ingest merges one externally completed span — shipped from another
// process as a WireSpan — into the trace on the given pid lane, annotated
// with the name of its local parent span (nil for none). The start time is
// wall clock (the sender aligned it to this process's clock at handshake)
// and converts to a trace-relative offset against the tracer's base; a span
// that began before the trace did clamps to zero rather than rendering
// off-screen. Nil-safe, so an untraced coordinator discards remote spans for
// free.
func (t *Tracer) Ingest(pid int, parent *Span, ws WireSpan) {
	if t == nil {
		return
	}
	rel := time.Duration(ws.StartUnixNano - t.base.UnixNano())
	if rel < 0 {
		rel = 0
	}
	var args []spanArg
	for _, k := range sortedKeys(ws.Args) {
		args = append(args, spanArg{k: k, v: ws.Args[k]})
	}
	if parent != nil {
		args = append(args, spanArg{k: "parent_span", v: parent.name})
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		name: ws.Name, cat: ws.Cat, pid: pid, tid: ws.TID,
		start: rel, dur: time.Duration(ws.DurNanos), args: args,
	})
	t.mu.Unlock()
}

// sortedKeys returns m's keys in ascending order, so output built from a
// map is deterministic.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// traceEvent is one Chrome trace_event object. We emit complete ("X")
// events: begin timestamp plus duration, both in microseconds — plus "M"
// process_name metadata for named pid lanes.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the JSON-object flavor of the trace format, which lets us
// set the display unit.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON exports every completed span as Chrome trace_event JSON. Spans
// still open at export time are not included. A nil tracer writes an empty
// trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	file := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		for _, pid := range sortedKeys(t.procs) {
			file.TraceEvents = append(file.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]string{"name": t.procs[pid]},
			})
		}
		for _, r := range t.spans {
			pid := r.pid
			if pid == 0 {
				pid = LocalPID
			}
			ev := traceEvent{
				Name: r.name, Cat: r.cat, Ph: "X",
				TS:  float64(r.start.Nanoseconds()) / 1e3,
				Dur: float64(r.dur.Nanoseconds()) / 1e3,
				PID: pid, TID: r.tid,
			}
			if len(r.args) > 0 {
				ev.Args = make(map[string]string, len(r.args))
				for _, a := range r.args {
					ev.Args[a.k] = a.v
				}
			}
			file.TraceEvents = append(file.TraceEvents, ev)
		}
		t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
