package service

import (
	"encoding/json"
	"fmt"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/store"
	"muzzle/internal/sweep"
)

// This file is the store adapter: it translates between the manager's job
// vocabulary and the journal's opaque records (internal/store knows states
// and payloads only as strings and raw JSON). Three record shapes exist:
//
//	submit  kind "submit", payload storedSubmit (the full request)
//	state   kind "state", non-final (pending→running transitions)
//	final   kind "state", Final, payload storedOutcome (terminal results)
//
// The one deliberate asymmetry: cancellations are journaled only when a
// client asked for them (Manager.Cancel). A shutdown cancels jobs too, but
// journaling those would persist "canceled" for work the daemon still owes
// — the whole point of the journal is that such jobs come back.

// storedSubmit is the submission payload: everything needed to rebuild and
// re-validate the job in a later process. Exactly one of Request, Grid,
// and Cell is set.
type storedSubmit struct {
	// Created is the original submission time.
	Created time.Time `json:"created"`
	// Request is a compile/evaluate job's request.
	Request *Request `json:"request,omitempty"`
	// Grid is a sweep job's normalized grid.
	Grid *sweep.Grid `json:"grid,omitempty"`
	// Cell is a coordinator-dispatched cell (POST /v1/cells), its grid
	// normalized. Recovered cell jobs re-run without a waiting HTTP
	// client: the result lands in the journal and — via the shared
	// content-addressed cache — makes the coordinator's own retry of the
	// cell nearly free.
	Cell *coord.CellRequest `json:"cell,omitempty"`
}

// storedOutcome is the terminal payload: the results a restarted daemon
// serves for an already-finished job.
type storedOutcome struct {
	Total   int                      `json:"total"`
	Done    int                      `json:"done"`
	Results []*muzzle.EvalResultJSON `json:"results,omitempty"`
	Sweep   *sweep.Report            `json:"sweep,omitempty"`
	Cell    *sweep.CellReport        `json:"cell,omitempty"`
}

// journalSubmit appends a job's durable submission record. Unlike the
// transition appends it is fallible to the caller: a submission that
// cannot be made durable is rejected, not half-accepted.
//
//muzzle:nolock the job is newly built and unshared until enqueue publishes it
func (m *Manager) journalSubmit(j *job) error {
	if m.cfg.Journal == nil {
		return nil
	}
	sub := storedSubmit{Created: j.created}
	switch {
	case j.source == SourceCell:
		sub.Cell = &coord.CellRequest{Grid: j.sweep.Grid, Index: j.cellIndex,
			TimeoutMS: j.req.TimeoutMS, Verify: j.req.Verify}
	case j.sweep != nil:
		sub.Grid = &j.sweep.Grid
	default:
		req := j.req
		sub.Request = &req
	}
	payload, err := json.Marshal(&sub)
	if err != nil {
		return err
	}
	return m.cfg.Journal.Append(store.Record{
		Kind:    "submit",
		JobID:   j.id,
		Source:  j.source,
		State:   string(StatePending),
		Payload: payload,
	})
}

// journalState appends a non-terminal transition, best-effort.
func (m *Manager) journalState(j *job, state State) {
	if m.cfg.Journal == nil {
		return
	}
	err := m.cfg.Journal.Append(store.Record{
		Kind:  "state",
		JobID: j.id,
		State: string(state),
	})
	if err != nil {
		m.noteStoreError()
	}
}

// journalFinal appends a terminal transition with the job's results,
// best-effort: the client already has its answer either way.
func (m *Manager) journalFinal(j *job, state State, errText string) {
	if m.cfg.Journal == nil {
		return
	}
	j.mu.Lock()
	out := storedOutcome{
		Total:   j.total,
		Done:    j.done,
		Results: append([]*muzzle.EvalResultJSON(nil), j.results...),
		Sweep:   j.report,
		Cell:    j.cell,
	}
	j.mu.Unlock()
	payload, err := json.Marshal(&out)
	if err != nil {
		m.noteStoreError()
		return
	}
	err = m.cfg.Journal.Append(store.Record{
		Kind:    "state",
		JobID:   j.id,
		State:   string(state),
		Error:   errText,
		Final:   true,
		Payload: payload,
	})
	if err != nil {
		m.noteStoreError()
	}
}

// recoverJobs replays the journal into the job table during New, before
// the workers start. Terminal jobs come back queryable (GET serves their
// journaled results); unfinished jobs — pending or running when the last
// process stopped — are rebuilt, re-validated, and returned for the queue
// in their original submission order. Re-running recovered work is
// idempotent: completed circuits and sweep cells resolve through the
// content-addressed cache instead of recompiling.
//
//muzzle:nolock runs during New, before workers or handlers exist
func (m *Manager) recoverJobs() []*job {
	if m.cfg.Journal == nil {
		return nil
	}
	var pending []*job
	for _, js := range m.cfg.Journal.Jobs() {
		j, runnable, err := m.recoverJob(js)
		if err != nil {
			// The stored job no longer validates (a compiler vanished from
			// the registry, a payload predates a schema change): fail it
			// durably rather than dropping it silently or crashing startup.
			j.state = StateFailed
			j.errText = fmt.Sprintf("recovery: %v", err)
			t := js.Time
			j.finished = &t
			m.journalFinal(j, StateFailed, j.errText)
		}
		m.jobs[j.id] = j
		m.recovered++
		if j.state.Terminal() {
			close(j.ended)
			m.terminal = append(m.terminal, j.id)
			continue
		}
		if runnable {
			j.emit(Event{Kind: EventState, State: StatePending})
			pending = append(pending, j)
		}
	}
	return pending
}

// recoverJob rebuilds one job from its journaled state. Terminal jobs are
// reconstructed as read-only views; live ones are re-prepared for
// execution with running demoted to pending (the work they were doing died
// with the process).
func (m *Manager) recoverJob(js *store.JobState) (j *job, runnable bool, err error) {
	j = &job{
		id:      js.ID,
		source:  js.Source,
		state:   State(js.State),
		created: js.Time,
		subs:    make(map[chan Event]struct{}),
		ended:   make(chan struct{}),
	}
	var sub storedSubmit
	if len(js.Submit) > 0 {
		if err := json.Unmarshal(js.Submit, &sub); err != nil {
			return j, false, fmt.Errorf("decode submission: %w", err)
		}
	}
	if !sub.Created.IsZero() {
		j.created = sub.Created
	}
	switch {
	case sub.Cell != nil:
		j.compilers = append([]string(nil), sub.Cell.Grid.Compilers...)
	case sub.Grid != nil:
		j.compilers = append([]string(nil), sub.Grid.Compilers...)
	case sub.Request != nil:
		j.compilers = append([]string(nil), sub.Request.Compilers...)
	}

	if js.Final {
		j.errText = js.Error
		t := js.Time
		j.finished = &t
		if len(js.Result) > 0 {
			var out storedOutcome
			if err := json.Unmarshal(js.Result, &out); err != nil {
				return j, false, fmt.Errorf("decode outcome: %w", err)
			}
			j.total, j.done = out.Total, out.Done
			j.results = out.Results
			j.report = out.Sweep
			j.cell = out.Cell
		}
		return j, false, nil
	}

	// Live job: re-prepare it as its submission did, running → pending.
	j.state = StatePending
	switch {
	case sub.Cell != nil:
		err = m.prepareCell(j, *sub.Cell)
	case sub.Grid != nil:
		err = prepareSweep(j, *sub.Grid)
	case sub.Request != nil:
		err = prepare(j, *sub.Request)
	default:
		err = fmt.Errorf("submission record has no request or grid")
	}
	return j, err == nil, err
}
