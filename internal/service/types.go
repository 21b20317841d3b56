package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"muzzle"
	"muzzle/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Terminal states are done, failed, and canceled.
const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors of the manager API.
var (
	// ErrNotFound marks an unknown job id.
	ErrNotFound = errors.New("service: job not found")
	// ErrFinished marks a cancel of an already-terminal job.
	ErrFinished = errors.New("service: job already finished")
	// ErrQueueFull marks a submit rejected by admission control (the HTTP
	// layer maps it to 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrClosed marks a submit after Close or during a drain.
	ErrClosed = errors.New("service: manager closed")
)

// RequestError is a submit-time validation failure (HTTP 400). Code is a
// stable machine-readable slug ("unknown_compiler", "bad_request", ...).
type RequestError struct {
	Code string
	Err  error
}

// Error implements the error interface.
func (e *RequestError) Error() string { return fmt.Sprintf("service: %s: %v", e.Code, e.Err) }

// Unwrap exposes the cause.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(code, format string, args ...any) *RequestError {
	return &RequestError{Code: code, Err: fmt.Errorf(format, args...)}
}

// RandomRequest asks for the pipeline's random benchmark suite.
type RandomRequest struct {
	// Limit evaluates only the first N suite circuits (0 = the full 120).
	Limit int `json:"limit,omitempty"`
	// Seed, when set, re-seeds the suite (WithRandomSeed); nil preserves
	// the paper's circuits.
	Seed *int64 `json:"seed,omitempty"`
}

// Request is one compile/evaluate job: exactly one source — inline
// OpenQASM or the named random suite — plus optional compiler and timeout
// overrides.
type Request struct {
	// Name labels the job's circuit when QASM is set (default "qasm").
	// The name is part of the compile-cache key, so identical sources
	// submitted under the same name share cache entries.
	Name string `json:"name,omitempty"`
	// QASM is inline OpenQASM 2.0 source.
	QASM string `json:"qasm,omitempty"`
	// Random requests the random benchmark suite instead.
	Random *RandomRequest `json:"random,omitempty"`
	// Compilers overrides the evaluation compiler set (registry names;
	// default "baseline","optimized").
	Compilers []string `json:"compilers,omitempty"`
	// TimeoutMS bounds the job's run; 0 means no per-job timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify runs the independent schedule verifier on every compiled
	// trace of this job; violations fail the job with a typed verification
	// error (never a panic). A cache hit or shared result that no
	// verifying run produced is compiled and verified again, and verified
	// results carry "verified": true. The daemon-wide Config.Verify forces
	// this on for every job.
	Verify bool `json:"verify,omitempty"`
}

// Event is one progress notification of a job, replayed to late
// subscribers in order. Kind "state" carries a lifecycle transition; kind
// "circuit" carries one per-circuit outcome (Result on success, Error on
// failure); kind "cell" carries one sweep cell's report.
type Event struct {
	Seq     int                    `json:"seq"`
	Kind    string                 `json:"kind"`
	JobID   string                 `json:"job_id"`
	State   State                  `json:"state,omitempty"`
	Index   int                    `json:"index,omitempty"`
	Circuit string                 `json:"circuit,omitempty"`
	Result  *muzzle.EvalResultJSON `json:"result,omitempty"`
	Cell    *sweep.CellReport      `json:"cell,omitempty"`
	Error   string                 `json:"error,omitempty"`
	Done    int                    `json:"done"`
	Total   int                    `json:"total"`
}

// Event kinds.
const (
	EventState   = "state"
	EventCircuit = "circuit"
	EventCell    = "cell"
)

// JobView is the externally visible snapshot of a job (GET /v1/jobs/{id},
// GET /v1/sweeps/{id}). For sweep jobs Source is "sweep", CircuitsTotal/
// CircuitsDone count cells, and Sweep carries the aggregated report once
// the job is terminal (partial on cancellation).
type JobView struct {
	ID            string                   `json:"id"`
	State         State                    `json:"state"`
	Source        string                   `json:"source"`
	Compilers     []string                 `json:"compilers,omitempty"`
	Created       time.Time                `json:"created"`
	Started       *time.Time               `json:"started,omitempty"`
	Finished      *time.Time               `json:"finished,omitempty"`
	CircuitsTotal int                      `json:"circuits_total"`
	CircuitsDone  int                      `json:"circuits_done"`
	Error         string                   `json:"error,omitempty"`
	Results       []*muzzle.EvalResultJSON `json:"results,omitempty"`
	Sweep         *sweep.Report            `json:"sweep,omitempty"`
	Cell          *sweep.CellReport        `json:"cell,omitempty"`
}

// Job sources, as reported by JobView.Source and journaled on submission.
const (
	SourceQASM   = "qasm"
	SourceRandom = "random"
	SourceSweep  = "sweep"
	SourceCell   = "cell"
)

// Version identifies a worker build. It appears in the /healthz worker
// block so a coordinator can surface per-worker version drift.
const Version = "0.7.0"

// job is the manager's internal record. Its mutable fields are guarded by
// mu; the manager's map lock is never held while mu is.
type job struct {
	id        string
	req       Request
	source    string          // SourceQASM, SourceRandom, or SourceSweep
	compilers []string        // effective compiler set, for views
	circ      *muzzle.Circuit // parsed QASM source (nil for random and sweep jobs)
	sweep     *sweep.Expanded // sweep and cell jobs: the validated, expanded grid (nil otherwise); its Grid is journaled
	cellIndex int             // cell jobs: which cell of the expanded grid to run

	mu           sync.Mutex
	state        State                    // guarded by mu
	created      time.Time                // guarded by mu
	started      *time.Time               // guarded by mu
	finished     *time.Time               // guarded by mu
	total, done  int                      // guarded by mu
	errText      string                   // guarded by mu
	results      []*muzzle.EvalResultJSON // guarded by mu
	report       *sweep.Report            // guarded by mu; sweep jobs: aggregated report once the run ends
	cell         *sweep.CellReport        // guarded by mu; cell jobs: the single cell's report
	events       []Event                  // guarded by mu
	subs         map[chan Event]struct{}  // guarded by mu
	ended        chan struct{}            // closed when the job turns terminal
	cancel       context.CancelFunc       // guarded by mu
	userCanceled bool                     // guarded by mu; set by Cancel: distinguishes a client's cancel (journaled,
	// never resurrected) from shutdown cancellation (not journaled, so the
	// next process recovers the job as pending)
}

// emit assigns a sequence number, records the event for replay, and
// broadcasts it. Terminal state events close every subscriber and the
// job's ended channel. Slow subscribers (a full 4096-event buffer) drop
// events rather than wedge the worker; the replayed history on reconnect
// is always complete.
func (j *job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(ev)
}

// emitLocked is emit with j.mu already held — used where a state change
// and its event must be visible atomically to Subscribe.
func (j *job) emitLocked(ev Event) {
	ev.JobID = j.id
	ev.Seq = len(j.events)
	ev.Done = j.done
	ev.Total = j.total
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	if ev.Kind == EventState && ev.State.Terminal() {
		for ch := range j.subs {
			close(ch)
			delete(j.subs, ch)
		}
		close(j.ended)
	}
}
