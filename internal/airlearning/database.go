package airlearning

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"

	"autopilot/internal/policy"
)

// Record is one validated policy entry in the Air Learning database
// (paper §III-B): an identifier, the hyper-parameters used for training, and
// the success rate measured during validation. The identifier is always
// Key(Hyper, Scenario): Put sets it, whatever a checkpoint says.
type Record struct {
	ID          string       `json:"id"`
	Hyper       policy.Hyper `json:"hyper"`
	Scenario    Scenario     `json:"scenario"`
	SuccessRate float64      `json:"success_rate"`
	Params      int64        `json:"params"`
	TrainSteps  int          `json:"train_steps"`
}

// Database stores validated policies; Phase 2 reads success rates from it.
// It is safe for concurrent use.
type Database struct {
	mu      sync.RWMutex
	records map[string]Record
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{records: make(map[string]Record)}
}

// Key builds the canonical record ID for (hyper, scenario).
func Key(h policy.Hyper, s Scenario) string {
	return fmt.Sprintf("%s/%s", s, h)
}

// Put inserts or replaces the record for (r.Hyper, r.Scenario), setting
// its ID to their Key, so Get and Has find every record Put.
func (d *Database) Put(r Record) {
	r.ID = Key(r.Hyper, r.Scenario)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.records[r.ID] = r
}

// Get fetches the record for (hyper, scenario).
func (d *Database) Get(h policy.Hyper, s Scenario) (Record, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.records[Key(h, s)]
	return r, ok
}

// Has reports whether a record exists for (hyper, scenario) — the check a
// resumed Phase-1 sweep uses to skip already-trained points.
func (d *Database) Has(h policy.Hyper, s Scenario) bool {
	_, ok := d.Get(h, s)
	return ok
}

// Len returns the number of records.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.records)
}

// All returns records sorted by ID for deterministic iteration.
func (d *Database) All() []Record {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Record, 0, len(d.records))
	for _, r := range d.records {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Best returns the highest-success record for a scenario, which Phase 3
// filters on before mapping designs to the F-1 model. Iteration runs over
// the ID-sorted record list and replaces the incumbent only on strictly
// higher success, so ties break toward the lexicographically smallest ID —
// the result is stable however concurrently the database was populated.
func (d *Database) Best(s Scenario) (Record, bool) {
	var best Record
	found := false
	for _, r := range d.All() {
		if r.Scenario != s {
			continue
		}
		if !found || r.SuccessRate > best.SuccessRate {
			best, found = r, true
		}
	}
	return best, found
}

// checkpointMagic prefixes every v2 snapshot. JSON payloads (arrays or
// objects) can never start with '#', so the first byte discriminates the
// checksummed v2 format from legacy plain-JSON checkpoints, which Load still
// accepts.
const checkpointMagic = "#autopilot-db v2 crc32="

// CorruptError reports a checkpoint that failed integrity validation —
// truncated JSON, a checksum mismatch from a bit flip, unparseable records,
// or a record no trained policy can have. Quarantined holds the path the damaged file was renamed to (empty
// if the rename itself failed).
type CorruptError struct {
	Path        string
	Quarantined string
	Err         error
}

func (e *CorruptError) Error() string {
	if e.Quarantined != "" {
		return fmt.Sprintf("airlearning: corrupt database %s (quarantined to %s): %v", e.Path, e.Quarantined, e.Err)
	}
	return fmt.Sprintf("airlearning: corrupt database %s: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// encodeCheckpoint renders records as a v2 checkpoint: a one-line checksum
// header followed by the JSON payload the header's CRC-32 covers.
func encodeCheckpoint(recs []Record) ([]byte, error) {
	payload, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("airlearning: marshal database: %w", err)
	}
	header := fmt.Sprintf("%s%08x\n", checkpointMagic, crc32.ChecksumIEEE(payload))
	return append([]byte(header), payload...), nil
}

// decodeCheckpoint parses either format: v2 (header + payload, checksum
// verified) or legacy plain JSON, and validates every record. The returned
// error describes the first integrity violation found.
func decodeCheckpoint(data []byte) ([]Record, error) {
	if bytes.HasPrefix(data, []byte(checkpointMagic)) {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("truncated checkpoint header")
		}
		sum, err := strconv.ParseUint(string(data[len(checkpointMagic):nl]), 16, 32)
		if err != nil {
			return nil, fmt.Errorf("malformed checkpoint header: %w", err)
		}
		payload := data[nl+1:]
		if got := crc32.ChecksumIEEE(payload); got != uint32(sum) {
			return nil, fmt.Errorf("checksum mismatch: header %08x, payload %08x", uint32(sum), got)
		}
		data = payload
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("parse records: %w", err)
	}
	for i, r := range recs {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("record %d (%s): %w", i, Key(r.Hyper, r.Scenario), err)
		}
	}
	return recs, nil
}

// validate reports why r cannot be a trained policy's record: its
// hyper-parameters lie outside the model space, its scenario is not one of
// Scenarios, or its success rate is not a fraction in [0, 1]. A checkpoint
// is written only from such records, so a record that fails was edited by
// hand or damaged, and loading it would let Best hand Phase 3 a policy that
// was never trained.
func (r Record) validate() error {
	if err := r.Hyper.Validate(); err != nil {
		return err
	}
	if !slices.Contains(Scenarios, r.Scenario) {
		return fmt.Errorf("unknown scenario %d", int(r.Scenario))
	}
	if !(r.SuccessRate >= 0 && r.SuccessRate <= 1) {
		return fmt.Errorf("success rate %g outside [0, 1]", r.SuccessRate)
	}
	return nil
}

// Snapshot atomically writes the database as a checksummed v2 checkpoint:
// the records are marshalled under the read lock, prefixed with a CRC-32
// integrity header, written to a temporary file in the destination
// directory, and renamed over path. Concurrent snapshots (and writers
// inserting records mid-snapshot) therefore always leave a complete,
// verifiable checkpoint on disk — the property the Phase-1 training engine
// relies on when it checkpoints after every completed record.
func (d *Database) Snapshot(path string) error {
	data, err := encodeCheckpoint(d.All())
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("airlearning: snapshot database: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("airlearning: snapshot database: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("airlearning: snapshot database: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("airlearning: snapshot database: %w", err)
	}
	return nil
}

// Load reads a database previously written by Snapshot, accepting both
// the checksummed v2 format and legacy plain-JSON checkpoints. A checkpoint
// that fails integrity validation (truncation, bit flip, unparseable
// records, or a record that fails validate) is quarantined — renamed to path+".corrupt" so the damage is
// preserved for inspection but never re-read — and Load returns a
// *CorruptError; callers resume from an empty database.
func Load(path string) (*Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("airlearning: read database: %w", err)
	}
	recs, err := decodeCheckpoint(data)
	if err != nil {
		cerr := &CorruptError{Path: path, Err: err}
		quarantine := path + ".corrupt"
		if renameErr := os.Rename(path, quarantine); renameErr == nil {
			cerr.Quarantined = quarantine
		}
		return nil, cerr
	}
	db := NewDatabase()
	for _, r := range recs {
		db.Put(r)
	}
	return db, nil
}
