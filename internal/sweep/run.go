package sweep

import (
	"context"
	"fmt"

	"muzzle"
)

// Options configure the run of one cell.
type Options struct {
	// Cache, when non-nil, is the shared content-addressed compile cache:
	// cells whose (circuit, machine, compilers, sim) coordinates were
	// evaluated before — in this run, an earlier resumed run, or any other
	// client of the same cache — are served without compiling.
	Cache *muzzle.Cache
	// Flight, when non-nil, coalesces cells whose coordinates are merely
	// *concurrently* identical — with each other or with any other client
	// of the same group (daemon jobs, the CLI) — so duplicates that race
	// past the cache still cost one compile.
	Flight *muzzle.Flight
	// Verify runs the independent schedule verifier on every freshly
	// compiled result and on cache hits that still carry their traces
	// (summary-only disk entries pass through); violations mark the cell
	// failed (CellReport.Error) rather than aborting the sweep.
	Verify bool
}

// RunCell executes exactly one cell of the expanded grid — the unit the
// coordinator (internal/coord) runs in process or dispatches to a worker.
// Per-cell failures land in CellReport.Error, not the error return; the
// error return covers only an out-of-range index.
func (e *Expanded) RunCell(ctx context.Context, index int, opt Options) (CellReport, error) {
	if index < 0 || index >= len(e.Cells) {
		return CellReport{}, fmt.Errorf("sweep: cell index %d out of range [0, %d)", index, len(e.Cells))
	}
	return runCell(ctx, e.Grid, e.Cells[index], opt), nil
}

// Skeleton returns a report carrying only the cell's coordinates — the
// shape of a cell that failed or was never run.
func (c Cell) Skeleton() CellReport {
	return CellReport{
		Index:        c.Index,
		ID:           c.ID,
		Topology:     c.Topology,
		Traps:        c.Traps,
		Capacity:     c.Capacity,
		CommCapacity: c.CommCapacity,
		Circuit:      c.Circuit,
	}
}

// runCell evaluates one cell: a pipeline over the cell's machine point and
// the grid's compiler set, sharing the sweep-wide cache, applied to the
// cell's circuit.
func runCell(ctx context.Context, g Grid, cell Cell, opt Options) CellReport {
	out := cell.Skeleton()
	popts := []muzzle.PipelineOption{
		muzzle.WithMachine(cell.Machine),
		muzzle.WithCompilers(g.Compilers...),
	}
	if g.Sim != nil {
		popts = append(popts, muzzle.WithSimParams(*g.Sim))
	}
	if opt.Cache != nil {
		popts = append(popts, muzzle.WithCache(opt.Cache))
	}
	if opt.Flight != nil {
		popts = append(popts, muzzle.WithFlight(opt.Flight))
	}
	if opt.Verify {
		popts = append(popts, muzzle.WithVerify())
	}
	p, err := muzzle.NewPipeline(popts...)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	res, err := p.EvaluateCircuit(ctx, cell.Build())
	if err != nil {
		out.Error = err.Error()
		return out
	}
	j := muzzle.EncodeEvalResult(res)
	out.Qubits = j.Qubits
	out.Gates2Q = j.Gates2Q
	out.Outcomes = g.sortedOutcomes(j.Outcomes)
	return out
}
