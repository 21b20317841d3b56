package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"muzzle/internal/coord"
	"muzzle/internal/sweep"
)

// This file is the worker half of the distributed sweep story: POST
// /v1/cells lets a coordinator (internal/coord) hand this daemon exactly
// one cell of an expanded grid and wait for the report. Cell execution is
// not a side door — it rides the same admission queue, journal, worker
// pool, cache, and flight group as every other job, so a daemon saturated
// by interactive work answers 429 + Retry-After and the coordinator backs
// off, and a crash mid-cell is recovered like any journaled job (the
// re-run warms the shared cache, making the coordinator's retry nearly
// free).

// expandCellGrid resolves a request grid through the manager's expansion
// cache: a coordinator dispatches many cells of one grid to the same
// worker, and re-expanding per request would redo topology construction
// (including the all-pairs path precompute) len(cells)/N times.
func (m *Manager) expandCellGrid(g sweep.Grid) (*sweep.Expanded, error) {
	hash, err := sweep.Hash(g)
	if err != nil {
		return nil, err
	}
	m.expMu.Lock()
	if e, ok := m.expCache[hash]; ok {
		m.expMu.Unlock()
		return e, nil
	}
	m.expMu.Unlock()

	// Expand outside the lock: expansion is pure, so concurrent duplicate
	// work is wasted effort at worst, never an inconsistency.
	e, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	m.expMu.Lock()
	if _, ok := m.expCache[hash]; !ok {
		m.expCache[hash] = e
		m.expOrder = append(m.expOrder, hash)
		for len(m.expOrder) > expandCacheSize {
			delete(m.expCache, m.expOrder[0])
			m.expOrder = m.expOrder[1:]
		}
	}
	m.expMu.Unlock()
	return e, nil
}

// expandCacheSize bounds the expansion cache: a worker serves a handful of
// concurrent coordinators at most, each with one grid.
const expandCacheSize = 16

// SubmitCell validates a cell request and enqueues it as a single-cell job
// on the shared bounded queue. Validation failures are *RequestError
// (HTTP 400); admission rejections are ErrQueueFull (429 + Retry-After).
func (m *Manager) SubmitCell(req coord.CellRequest) (JobView, error) {
	j := newJob()
	if err := m.prepareCell(j, req); err != nil {
		return JobView{}, err
	}
	return m.enqueue(j)
}

// prepareCell validates a cell request and fills the job's derived fields
// (the expanded grid, cell index, run knobs). It is shared by SubmitCell
// and journal recovery, as prepare is for compile jobs.
//
//muzzle:nolock the job is unpublished: a submission or recovery is still building it
func (m *Manager) prepareCell(j *job, req coord.CellRequest) error {
	e, err := m.expandCellGrid(req.Grid)
	if err != nil {
		return &RequestError{Code: "bad_grid", Err: err}
	}
	if req.Index < 0 || req.Index >= len(e.Cells) {
		return badRequest("bad_cell", "cell index %d out of range [0, %d)", req.Index, len(e.Cells))
	}
	if req.TimeoutMS < 0 {
		return badRequest("bad_request", "timeout_ms %d must be >= 0", req.TimeoutMS)
	}
	j.sweep = e
	j.source = SourceCell
	j.cellIndex = req.Index
	// The run loop's timeout and verify plumbing read the request record,
	// so a cell job carries its knobs there.
	j.req = Request{TimeoutMS: req.TimeoutMS, Verify: req.Verify}
	j.compilers = append([]string(nil), e.Grid.Compilers...)
	j.total = 1
	return nil
}

// runCellJob executes a dequeued single-cell job: one cell of the expanded
// grid through the sweep engine, sharing the daemon's cache and flight
// group, with the report attached to the job and emitted as a "cell"
// event.
func (m *Manager) runCellJob(ctx context.Context, j *job) {
	j.emit(Event{Kind: EventState, State: StateRunning})
	t0 := time.Now()
	cr, err := j.sweep.RunCell(ctx, j.cellIndex, sweep.Options{
		Cache:  m.cfg.Cache,
		Flight: m.cfg.Flight,
		Verify: j.req.Verify || m.cfg.Verify,
	})
	m.latency.Observe(time.Since(t0).Seconds())
	if err != nil {
		// Out of range: unreachable past SubmitCell validation, but a
		// journaled cell recovered against a changed grid definition could
		// land here — fail cleanly.
		m.finish(j, StateFailed, err.Error())
		return
	}
	j.mu.Lock()
	j.cell = &cr
	if cr.Error == "" {
		j.done = 1
	}
	j.mu.Unlock()
	j.emit(Event{Kind: EventCell, Index: cr.Index, Circuit: cr.ID, Cell: &cr, Error: cr.Error})
	switch {
	case ctx.Err() == context.DeadlineExceeded:
		m.finish(j, StateFailed, fmt.Sprintf("timed out after %dms", j.req.TimeoutMS))
	case ctx.Err() != nil:
		m.finish(j, StateCanceled, "")
	case cr.Error != "":
		m.finish(j, StateFailed, cr.Error)
	default:
		m.finish(j, StateDone, "")
	}
}

// handleCell is POST /v1/cells: submit the cell through the shared
// admission path, wait for it to finish, and answer with the CellReport.
//
// Status codes are the coordinator's dispatch contract:
//
//	200  the cell ran to a deterministic result — success or a failure
//	     that would repeat identically (the report's error field); the
//	     coordinator persists it either way, exactly like a local run.
//	400  malformed grid or index: the cell can never run anywhere.
//	429  admission queue full: Retry-After says when to come back.
//	503  draining or canceled: this worker won't finish the cell — send
//	     it to another one.
//	500  transient execution failure (timeout, internal error): retry.
func (m *Manager) handleCell(w http.ResponseWriter, r *http.Request) {
	var req coord.CellRequest
	if !decodeBody(w, r, &req) {
		return
	}
	view, err := m.SubmitCell(req)
	if err != nil {
		m.submitErr(w, err)
		return
	}

	// Wait for the job to reach a terminal state; a client that
	// disconnects first takes its cell with it — the job is canceled so
	// the worker slot frees up for cells that still have a coordinator
	// waiting.
	j, err := m.lookup(view.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	select {
	case <-r.Context().Done():
		m.Cancel(view.ID) //nolint:errcheck // best-effort: the client is gone
		return
	case <-j.ended:
	}

	final := m.view(j)
	switch {
	case final.State == StateDone && final.Cell != nil:
		writeJSON(w, http.StatusOK, final.Cell)
	case final.State == StateFailed && final.Cell != nil && final.Cell.Error == final.Error:
		// Deterministic cell failure: the report is the answer.
		writeJSON(w, http.StatusOK, final.Cell)
	case final.State == StateCanceled:
		writeError(w, http.StatusServiceUnavailable, "canceled",
			errors.New("service: cell canceled before completion"))
	default:
		writeError(w, http.StatusInternalServerError, "cell_failed",
			fmt.Errorf("service: cell execution failed: %s", final.Error))
	}
}
