package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/dse"
	"repro/internal/robust"
)

// Job states. The lifecycle (DESIGN.md §11) is
// pending → running → {succeeded, failed, canceled}; a job found still
// "running" on disk at startup was orphaned by a crash or restart and is
// adopted — re-run with Attempts incremented, resuming its checkpoint.
const (
	JobPending   = "pending"
	JobRunning   = "running"
	JobSucceeded = "succeeded"
	JobFailed    = "failed"
	JobCanceled  = "canceled"
)

// Job is the persisted and reported record of one /v1/jobs submission.
// Result carries only the deterministic payload (values, best point) so
// a job killed mid-run and resumed after restart reproduces it
// byte-identically; the volatile run diagnostics (wall time, retries,
// cache hits) live in Report.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Kind is "sweep" or "aps".
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Attempts counts executions of this job, adoptions included.
	Attempts int `json:"attempts"`
	// Created/Started/Finished are RFC3339Nano wall-clock stamps.
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Request is the submitted work description, verbatim.
	Request json.RawMessage `json:"request"`
	// Progress is the live heartbeat of a running job (poll-time only,
	// never persisted — the checkpoint file is the durable progress).
	Progress *JobProgress `json:"progress,omitempty"`
	// Result is the deterministic final payload of a succeeded job.
	Result json.RawMessage `json:"result,omitempty"`
	// Report is the volatile run diagnostics of a finished sweep/aps job.
	Report *dse.SweepReport `json:"report,omitempty"`
	// Error is the envelope body of a failed job.
	Error *ErrorBody `json:"error,omitempty"`
}

// JobProgress is a running job's heartbeat.
type JobProgress struct {
	// Evaluated counts raw evaluator invocations this attempt (resumed or
	// memoized points cost none).
	Evaluated int64 `json:"evaluated"`
	// Total is the number of points the job covers.
	Total int `json:"total"`
	// ElapsedMS is wall time since this attempt started.
	ElapsedMS int64 `json:"elapsed_ms"`
}

// terminal reports whether state is final.
func terminalJobState(state string) bool {
	return state == JobSucceeded || state == JobFailed || state == JobCanceled
}

// jobIDRx matches generated job IDs ("j" + 16 hex digits); path
// parameters are validated against it before touching the store.
var jobIDRx = regexp.MustCompile(`^j[0-9a-f]{16}$`)

// newJobID draws a fresh random job ID.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating job id: %w", err)
	}
	return "j" + hex.EncodeToString(b[:]), nil
}

// jobStore persists one JSON file per job under its directory, written
// through robust.WriteFileAtomic like sweep checkpoints and snapshots.
// Job records are small (the request plus the result), so whole-file
// rewrites are cheap.
type jobStore struct {
	dir string
}

// newJobStore opens (creating) the store directory.
func newJobStore(dir string) (*jobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating job directory: %w", err)
	}
	return &jobStore{dir: dir}, nil
}

// path maps a job ID to its record file.
func (st *jobStore) path(id string) string {
	return filepath.Join(st.dir, id+".json")
}

// save durably persists j (atomic whole-file replace).
func (st *jobStore) save(j *Job) error {
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("server: encoding job %s: %w", j.ID, err)
	}
	data = append(data, '\n')
	return robust.WriteFileAtomic(st.path(j.ID), data)
}

// load reads one job record.
func (st *jobStore) load(id string) (*Job, error) {
	data, err := os.ReadFile(st.path(id))
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("server: decoding job %s: %w", id, err)
	}
	return &j, nil
}

// list loads every job record in the store, sorted by creation stamp
// then ID. Unreadable records are skipped, not fatal: one corrupt file
// must not take the whole subsystem down at startup.
func (st *jobStore) list() ([]*Job, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	jobs := make([]*Job, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if !jobIDRx.MatchString(id) {
			continue
		}
		j, err := st.load(id)
		if err != nil {
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Created != jobs[k].Created {
			return jobs[i].Created < jobs[k].Created
		}
		return jobs[i].ID < jobs[k].ID
	})
	return jobs, nil
}

// delete removes a job record (and its checkpoint file, best effort —
// the caller passes the checkpoint path, empty to skip).
func (st *jobStore) delete(id, checkpoint string) error {
	if err := os.Remove(st.path(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	if checkpoint != "" {
		_ = os.Remove(checkpoint)
	}
	return nil
}
