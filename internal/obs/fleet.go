package obs

import "sync"

// This file is the fleet half of the observability layer: the pieces that
// let one coordinator process assemble a single attributable view of a sweep
// sharded across workers.
//
//   - WireSpan is one completed span in transit: a grid worker times each
//     evaluation and ships the span on that job's result post, stamped on
//     the coordinator's clock;
//   - Fleet federates worker metrics snapshots coordinator-side: cumulative
//     snapshots replace (never re-add) per worker, mismatched histogram
//     layouts are skipped and counted per instrument instead of poisoning
//     the worker's whole snapshot, and the per-worker-labeled view feeds
//     /grid/v1/fleet and the Prometheus exposition.
//
// Everything here keeps the package's two core contracts: nil receivers
// no-op with zero allocations, and nothing draws randomness or reorders
// work, so fleet telemetry is bitwise-invisible to sweep results.

// WireSpan is one completed span in transit between processes. The start
// time is wall-clock nanoseconds already aligned to the receiving tracer's
// clock (the sender learned the offset at handshake).
type WireSpan struct {
	Name          string            `json:"name"`
	Cat           string            `json:"cat,omitempty"`
	TID           int64             `json:"tid,omitempty"`
	StartUnixNano int64             `json:"start_unix_nano"`
	DurNanos      int64             `json:"dur_nanos"`
	Args          map[string]string `json:"args,omitempty"`
}

// Fleet federates worker metrics snapshots on the coordinator. Workers ship
// cumulative Registry.Snapshot()s (idempotent under duplicated or dropped
// heartbeats — the newest sequence number wins, nothing is re-added), and
// the fleet serves them per worker and as one worker-labeled view.
type Fleet struct {
	mu      sync.Mutex
	workers map[string]*fleetWorker
	// layouts pins the first-seen bucket layout per histogram name; later
	// snapshots disagreeing with it have that one instrument skipped.
	layouts map[string][]float64
	skipped int64
}

type fleetWorker struct {
	snap Snapshot
	seq  int64
}

// NewFleet returns an empty fleet registry.
func NewFleet() *Fleet {
	return &Fleet{workers: map[string]*fleetWorker{}, layouts: map[string][]float64{}}
}

// Update stores a worker's cumulative snapshot. seq orders a worker's
// snapshots — stale (re-delivered or reordered) snapshots are ignored, so
// at-least-once shipping cannot double-count. Histograms whose bucket layout
// disagrees with the fleet's first-seen layout for that name are dropped
// from the stored snapshot one instrument at a time and returned as typed
// *MergeErrors (mirrored into Skipped), never failing the whole snapshot.
// Nil-safe.
func (f *Fleet) Update(worker string, seq int64, s Snapshot) []*MergeError {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[worker]
	if w == nil {
		w = &fleetWorker{}
		f.workers[worker] = w
	}
	if seq <= w.seq {
		return nil
	}
	var skipped []*MergeError
	for name, h := range s.Histograms {
		layout, ok := f.layouts[name]
		if !ok {
			f.layouts[name] = append([]float64(nil), h.Bounds...)
			continue
		}
		if err := boundsMismatch(layout, h.Bounds); err != nil {
			err.Instrument = name
			skipped = append(skipped, err)
			delete(s.Histograms, name)
		}
	}
	f.skipped += int64(len(skipped))
	w.seq, w.snap = seq, s
	return skipped
}

// boundsMismatch compares two bucket layouts, returning a typed error on the
// first disagreement.
func boundsMismatch(want, got []float64) *MergeError {
	if len(want) != len(got) {
		return &MergeError{Index: -1, WantBounds: len(want), GotBounds: len(got)}
	}
	for i := range want {
		if want[i] != got[i] {
			return &MergeError{Index: i, WantBounds: len(want), GotBounds: len(got), WantBound: want[i], GotBound: got[i]}
		}
	}
	return nil
}

// Skipped reports the cumulative count of instrument snapshots skipped for
// layout mismatch; 0 for a nil fleet.
func (f *Fleet) Skipped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.skipped
}

// Worker returns a worker's latest snapshot.
func (f *Fleet) Worker(id string) (Snapshot, bool) {
	if f == nil {
		return Snapshot{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.workers[id]
	if !ok {
		return Snapshot{}, false
	}
	return w.snap, true
}

// Labeled returns every worker's snapshot as one flat snapshot whose series
// names carry a worker label ("name;worker=w1") — the form the Prometheus
// encoder renders as {worker="w1"} label pairs.
func (f *Fleet) Labeled() Snapshot {
	if f == nil {
		return Snapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var out Snapshot
	for id, w := range f.workers {
		snap := w.snap
		if len(snap.Counters) > 0 && out.Counters == nil {
			out.Counters = map[string]int64{}
		}
		for name, v := range snap.Counters {
			out.Counters[labelWorker(name, id)] = v
		}
		if len(snap.Gauges) > 0 && out.Gauges == nil {
			out.Gauges = map[string]float64{}
		}
		for name, v := range snap.Gauges {
			out.Gauges[labelWorker(name, id)] = v
		}
		if len(snap.Histograms) > 0 && out.Histograms == nil {
			out.Histograms = map[string]HistogramSnapshot{}
		}
		for name, h := range snap.Histograms {
			out.Histograms[labelWorker(name, id)] = h
		}
	}
	return out
}

// labelWorker appends the worker label to a series name in the ";k=v" form
// the exposition encoder understands.
func labelWorker(name, worker string) string {
	return name + ";worker=" + worker
}
