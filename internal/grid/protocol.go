// Package grid shards a Phase-2 design-space sweep across worker processes
// with lease-based fault recovery. A coordinator owns the job table: every
// design evaluation the search engine requests becomes a job, jobs
// are granted to workers in short-lived leases (renewed by heartbeat,
// reclaimed and re-issued on expiry), stragglers are handled by work-stealing
// duplicate leases, and deliveries are CRC-checked and deduplicated before
// the coordinator hands the result back to the (single-process) optimizer
// loop.
//
// The determinism argument: a design evaluation is a pure function of the
// design point, so where (or how many times) it runs cannot change its value.
// Attempt indices re-key only the fault-injection surfaces — retry seeds via
// fault.AttemptSeed, RPC chaos keys via the identity-derived JobSeed — and
// the network fault classes corrupt delivery, never payloads. The optimizer
// itself runs only on the coordinator, consuming results in exactly the order
// a local run would, so the merged frontier is bitwise identical to the
// single-process run at any worker count, kill schedule, or network-chaos
// seed.
package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"autopilot/internal/api"
	"autopilot/internal/catalog"
	"autopilot/internal/dse"
	"autopilot/internal/fault"
	"autopilot/internal/obs"
)

// ProtocolVersion is the coordinator/worker wire-protocol version; a worker
// refuses to join a coordinator speaking a different one. Version 2 added
// fleet telemetry and the /grid/v1/fleet endpoint; version 3 ships each
// evaluation span on its job's result post and drops the fields no worker
// read (lease TTLs on jobs, heartbeat drop lists).
const ProtocolVersion = 3

// Wire paths under the coordinator's mux.
const (
	PathHello     = "/grid/v1/hello"
	PathLease     = "/grid/v1/lease"
	PathHeartbeat = "/grid/v1/heartbeat"
	PathResult    = "/grid/v1/result"
	PathFleet     = "/grid/v1/fleet"
)

// HelloResponse is the coordinator's self-description: the protocol version
// and the normalized co-design request, from which a worker rebuilds the
// exact evaluator a local run would have used. NowUnixNano is the
// coordinator's wall clock at response time — workers derive a clock offset
// from it so the spans they ship are stamped on the coordinator's clock —
// and Telemetry tells workers whether the coordinator ingests spans and
// metrics at all (when false, workers time and ship nothing, keeping the
// no-op path allocation-free).
type HelloResponse struct {
	Version     int                 `json:"version"`
	Request     api.CoDesignRequest `json:"request"`
	NowUnixNano int64               `json:"now_unix_nano,omitempty"`
	Telemetry   bool                `json:"telemetry,omitempty"`
}

// LeaseRequest asks for up to Max jobs on behalf of a worker.
type LeaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// Job is one leased design evaluation. Seed is the attempt-keyed chaos seed
// (fault.AttemptSeed over the identity-derived JobSeed), so a re-issued lease
// draws fresh fault decisions while staying placement-independent.
type Job struct {
	ID      int64           `json:"id"`
	Design  dse.DesignPoint `json:"design"`
	Seed    int64           `json:"seed"`
	Attempt int             `json:"attempt"`
}

// LeaseResponse grants jobs, or — when none are available — tells the worker
// how long to back off before asking again. Done means the sweep is over and
// the worker should exit.
type LeaseResponse struct {
	Jobs   []Job `json:"jobs,omitempty"`
	Done   bool  `json:"done,omitempty"`
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// HeartbeatRequest renews every lease the worker holds on the listed jobs.
// A telemetry-on worker also attaches its full cumulative registry snapshot,
// ordered by MetricsSeq: the newest sequence wins at the coordinator, so
// duplicated or reordered heartbeats cannot double-count.
type HeartbeatRequest struct {
	Worker     string        `json:"worker"`
	Jobs       []int64       `json:"jobs,omitempty"`
	MetricsSeq int64         `json:"metrics_seq,omitempty"`
	Metrics    *obs.Snapshot `json:"metrics,omitempty"`
}

// HeartbeatResponse reports whether the sweep is over.
type HeartbeatResponse struct {
	Done bool `json:"done,omitempty"`
}

// WireInfeasible carries a typed catalog.InfeasibleError verdict across the
// wire, so the coordinator-side sweep records the design as a skip (a
// legitimate search answer), not a failure.
type WireInfeasible struct {
	Loadout string `json:"loadout"`
	Reason  string `json:"reason"`
	Detail  string `json:"detail,omitempty"`
}

// WireError is the wire form of a failed evaluation.
type WireError struct {
	Attempts   int             `json:"attempts,omitempty"`
	Message    string          `json:"message"`
	Infeasible *WireInfeasible `json:"infeasible,omitempty"`
}

// ResultPost delivers one attempt's outcome. Exactly one of Result/Error is
// set; CRC covers the Result payload bytes. Span is the attempt's evaluation
// span when the coordinator asked for telemetry: it describes exactly this
// attempt, so the coordinator records it only if this delivery completes
// the job, and the result arbitration makes spans exactly-once too.
type ResultPost struct {
	Worker  string          `json:"worker"`
	Job     int64           `json:"job"`
	Attempt int             `json:"attempt"`
	CRC     uint32          `json:"crc,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *WireError      `json:"error,omitempty"`
	Span    *obs.WireSpan   `json:"span,omitempty"`
}

// ResultResponse acknowledges a delivery. Duplicate means the job was already
// completed (the delivery was discarded but the worker should not retry);
// Stale means the (job, attempt, worker) triple never held a lease and the
// delivery was rejected.
type ResultResponse struct {
	Accepted  bool `json:"accepted,omitempty"`
	Duplicate bool `json:"duplicate,omitempty"`
	Stale     bool `json:"stale,omitempty"`
	Done      bool `json:"done,omitempty"`
}

// FleetWorkerStatus is one worker's row in the fleet health report.
type FleetWorkerStatus struct {
	ID string `json:"id"`
	// PID is the worker's lane in the merged Chrome trace.
	PID int `json:"pid"`
	// LastSeenMS is milliseconds since the worker's last RPC.
	LastSeenMS int64 `json:"last_seen_ms"`
	// Jobs counts accepted result deliveries; Steals counts duplicate leases
	// this worker took on stragglers; Reclaims counts this worker's leases
	// that expired.
	Jobs     int64 `json:"jobs"`
	Steals   int64 `json:"steals,omitempty"`
	Reclaims int64 `json:"reclaims,omitempty"`
	// ActiveLeases and OldestLeaseMS describe the worker's current holdings.
	ActiveLeases  int   `json:"active_leases,omitempty"`
	OldestLeaseMS int64 `json:"oldest_lease_ms,omitempty"`
	// BusySec is coordinator-clock wall time attributed to accepted results.
	BusySec float64 `json:"busy_sec"`
	// Metrics is the worker's latest federated registry snapshot (includes
	// its estimate-latency histograms).
	Metrics obs.Snapshot `json:"metrics,omitempty"`
}

// FleetResponse is the coordinator's /grid/v1/fleet health report.
type FleetResponse struct {
	Workers       []FleetWorkerStatus `json:"workers"`
	JobsSubmitted int64               `json:"jobs_submitted"`
	JobsCompleted int64               `json:"jobs_completed"`
	JobsFailed    int64               `json:"jobs_failed"`
	JobsExhausted int64               `json:"jobs_exhausted"`
	Pending       int                 `json:"pending"`
	// MergeSkipped counts worker metric instruments dropped from federation
	// for histogram-layout mismatch (see obs.Fleet).
	MergeSkipped int64 `json:"merge_skipped,omitempty"`
}

// JobSeed derives a job's chaos-seed base from its identity (the design's
// canonical rendering) and the sweep seed — never from its submission slot or
// placement — so every fault decision downstream of it is identical whichever
// worker draws the job and wherever the sweep was sharded.
func JobSeed(design string, sweep int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", sweep, design)
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Checksum is the delivery checksum over a result payload's bytes.
func Checksum(payload []byte) uint32 {
	return crc32.ChecksumIEEE(payload)
}

// encodeError lowers an evaluation failure to the wire, peeling retry
// bookkeeping into Attempts and a typed infeasibility verdict into
// Infeasible so both survive the round trip.
func encodeError(err error) *WireError {
	we := &WireError{Attempts: fault.AttemptsOf(err), Message: err.Error()}
	var re *fault.RetryError
	if errors.As(err, &re) && re.Last != nil {
		we.Message = re.Last.Error()
	}
	var ie *catalog.InfeasibleError
	if errors.As(err, &ie) {
		we.Infeasible = &WireInfeasible{Loadout: ie.Loadout, Reason: string(ie.Reason), Detail: ie.Detail}
	}
	return we
}

// reconstruct rebuilds the typed error an evaluation would have produced
// locally: infeasibility verdicts come back as *catalog.InfeasibleError (so
// the sweep's skip classification still fires through errors.As) and
// multi-attempt failures come back wrapped in *fault.RetryError (so attempt
// accounting survives).
func (we *WireError) reconstruct() error {
	var err error
	if we.Infeasible != nil {
		err = &catalog.InfeasibleError{
			Loadout: we.Infeasible.Loadout,
			Reason:  catalog.InfeasibleReason(we.Infeasible.Reason),
			Detail:  we.Infeasible.Detail,
		}
	} else {
		err = errors.New(we.Message)
	}
	if we.Attempts > 1 {
		err = &fault.RetryError{Attempts: we.Attempts, Last: err}
	}
	return err
}
