package service

import (
	"context"
	"fmt"

	"muzzle/internal/coord"
	"muzzle/internal/sweep"
)

// SubmitSweep validates a sweep grid and enqueues it as a job on the same
// bounded queue compile jobs use: sweeps share the worker pool, the job
// table, cancellation, retention, and the SSE event plumbing. Invalid
// grids — bad topology parameters, unknown compilers, impossible capacity
// combinations — are rejected up front as *RequestError (HTTP 400);
// nothing a client submits can crash a worker.
func (m *Manager) SubmitSweep(g sweep.Grid) (JobView, error) {
	j := newJob()
	if err := prepareSweep(j, g); err != nil {
		return JobView{}, err
	}
	return m.enqueue(j)
}

// prepareSweep validates a sweep grid and fills the job's derived fields.
// It is shared by SubmitSweep and journal recovery, as prepare is for
// compile jobs. The expanded grid is kept on the job for its cell count;
// the coordinator that runs the job expands the normalized grid once more.
//
//muzzle:nolock the job is unpublished: a submission or recovery is still building it
func prepareSweep(j *job, g sweep.Grid) error {
	e, err := sweep.Expand(g)
	if err != nil {
		return &RequestError{Code: "bad_grid", Err: err}
	}
	if len(e.Cells) == 0 {
		return badRequest("bad_grid", "grid expands to zero cells")
	}
	j.sweep = e
	j.source = SourceSweep
	j.compilers = append([]string(nil), e.Grid.Compilers...)
	j.total = len(e.Cells)
	return nil
}

// runSweep executes a dequeued sweep job on an in-process coordinator,
// emitting one "cell" event per finished cell and attaching the aggregated
// report to the job. A cell cut off by cancellation is not a finished
// cell: the report records it, the event stream does not.
func (m *Manager) runSweep(ctx context.Context, j *job) {
	j.emit(Event{Kind: EventState, State: StateRunning})

	c, err := coord.New(coord.Config{
		PerWorkerInFlight: m.cfg.SweepParallelism,
		Cache:             m.cfg.Cache,
		Flight:            m.cfg.Flight,
		Verify:            m.cfg.Verify,
		OnCell: func(cr sweep.CellReport) {
			j.mu.Lock()
			if cr.Error == "" {
				j.done++
			}
			j.mu.Unlock()
			j.emit(Event{Kind: EventCell, Index: cr.Index, Circuit: cr.ID, Cell: &cr, Error: cr.Error})
		},
	})
	var rep *sweep.Report
	if err == nil {
		rep, err = c.Run(ctx, j.sweep.Grid)
	}
	if rep == nil {
		m.finish(j, StateFailed, err.Error())
		return
	}
	j.mu.Lock()
	j.report = rep
	j.mu.Unlock()

	failures := rep.Failures()
	switch {
	case ctx.Err() != nil:
		m.finish(j, StateCanceled, "")
	case failures > 0:
		m.finish(j, StateFailed, fmt.Sprintf("%d of %d cells failed", failures, len(j.sweep.Cells)))
	default:
		m.finish(j, StateDone, "")
	}
}
