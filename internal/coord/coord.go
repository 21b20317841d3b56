// Package coord runs the cells of an expanded sweep grid: it is the one
// executor behind muzzlesweep and the daemon's /v1/sweeps jobs. A
// Coordinator with no worker URLs runs cells in this process through
// sweep's RunCell; with URLs it fans the indexed cell list out across
// muzzled workers over HTTP (POST /v1/cells). Either way it merges the
// results into the same artifacts, and retry, persistence, resume,
// cancellation, and report writing exist once.
//
// The design leans on three properties the rest of the repo already
// guarantees:
//
//   - Cells are a deterministic, indexed sharding unit (sweep.Expand): any
//     worker given the same normalized grid resolves index i to the same
//     coordinates, so dispatch carries only (grid, index) and workers stay
//     stateless.
//   - The content-addressed compile cache doubles as a shared blob store:
//     point every worker's -cache-dir at one shared directory and
//     overlapping cells across workers — including a cell re-dispatched
//     after a worker died mid-flight — cost one compile fleet-wide.
//   - The sweep.Dir manifest layout is the durable merge point: completed
//     cells are persisted through its atomic tmp+fsync+rename path, so a
//     run directory started in process can be finished on workers and
//     vice versa.
//
// Dispatch respects worker backpressure: a 429 from a worker's admission
// queue is honored with its Retry-After estimate plus jitter (and never
// counts against the cell's retry budget), while transport failures and
// 5xx responses mark the worker unhealthy, reassign the cell to another
// worker, and leave revival to the background health probe.
package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"muzzle"
	"muzzle/internal/faults"
	"muzzle/internal/sweep"
)

// ErrNoWorkers is returned when no worker is healthy at the start of a run,
// or when every worker stays unhealthy past Config.NoWorkerTimeout while
// cells are still owed.
var ErrNoWorkers = errors.New("coord: no healthy workers")

// errRunComplete is the internal cancel cause that tears down the probe
// and slot goroutines after the last cell completed.
var errRunComplete = errors.New("coord: run complete")

// Config assembles a Coordinator.
type Config struct {
	// Workers are the muzzled base URLs ("http://host:8077") that run the
	// cells. Empty runs them in this process.
	Workers []string
	// Cache and Flight serve cells run in this process: Cache is the
	// shared content-addressed compile cache, and Flight coalesces cells
	// whose coordinates are concurrently identical. Workers use their own.
	Cache  *muzzle.Cache
	Flight *muzzle.Flight
	// Client issues all worker HTTP requests (default: a plain client;
	// per-request deadlines come from CellTimeout/ProbeTimeout).
	Client *http.Client
	// CellTimeout bounds one dispatch attempt of one cell to a worker
	// (default 10m). A worker that exceeds it is treated as failed for that
	// attempt and the cell is reassigned. Cells run in this process have
	// no deadline of their own.
	CellTimeout time.Duration
	// MaxAttempts is the per-cell dispatch budget (default 3): failed
	// attempts — transport errors, 5xx, timeouts — beyond it record the
	// cell as failed in the report. 429 backpressure retries are free.
	MaxAttempts int
	// PerWorkerInFlight bounds concurrently dispatched cells per worker
	// (0 = the worker pool size advertised by its /healthz, min 1, or one
	// per CPU in process).
	PerWorkerInFlight int
	// ProbeInterval is the health re-probe cadence for unhealthy workers
	// (default 2s); ProbeTimeout bounds one probe (default 5s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// NoWorkerTimeout aborts a run that has had zero healthy workers for
	// this long while cells are still owed (default 60s).
	NoWorkerTimeout time.Duration
	// Backoff shapes the jittered 429 retry delays.
	Backoff Backoff
	// BreakerThreshold is the per-worker circuit breaker: after this many
	// consecutive dispatch failures the worker's circuit opens and its
	// slots stop pulling cells — even if its /healthz still answers —
	// until BreakerCooldown elapses and a half-open trial dispatch
	// succeeds (default 3; negative disables). The breaker sits under the
	// retry/reassign logic: failures still reassign the cell, the breaker
	// just keeps a flaky worker from burning attempt budgets.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit waits before admitting
	// the half-open trial dispatch (default 5s).
	BreakerCooldown time.Duration
	// FaultScope, when non-empty, wraps the worker client's transport
	// with the process-global fault injector (internal/faults) under this
	// scope — the chaos tests' hook for latency, connection resets, and
	// injected 5xx. Empty in production.
	FaultScope string
	// Verify runs the independent schedule verifier on every cell.
	Verify bool
	// OnCell, when non-nil, receives each finished cell's report in
	// completion order; it is never invoked concurrently with itself.
	OnCell func(sweep.CellReport)
	// Logf, when non-nil, receives dispatch diagnostics (reassignments,
	// backoff waits, worker state changes).
	Logf func(format string, args ...any)
}

// withDefaults materializes the config's default knobs.
func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 5 * time.Second
	}
	if c.NoWorkerTimeout <= 0 {
		c.NoWorkerTimeout = time.Minute
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.FaultScope != "" {
		// Wrap a copy: the caller's client must not see injected faults.
		cl := *c.Client
		cl.Transport = faults.RoundTripper(c.FaultScope, cl.Transport)
		c.Client = &cl
	}
	return c
}

// Coordinator runs sweep cells on a fixed set of workers: muzzled daemons,
// or this process. Counters are cumulative across runs; the zero value is
// not usable — construct with New.
type Coordinator struct {
	cfg     Config
	workers []*worker
	met     counters
}

// New validates the worker list and returns a coordinator; with no
// workers it runs cells in this process. Workers are not probed here —
// Run probes before dispatching.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg}
	if len(cfg.Workers) == 0 {
		c.workers = []*worker{{name: "in-process", runner: inProcess{}}}
		return c, nil
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, u := range cfg.Workers {
		w, err := newDaemonWorker(u)
		if err != nil {
			return nil, err
		}
		if seen[w.name] {
			return nil, fmt.Errorf("coord: worker %s listed twice", w.name)
		}
		seen[w.name] = true
		c.workers = append(c.workers, w)
	}
	return c, nil
}

// task is one cell awaiting dispatch; attempts counts failed dispatches
// (not 429 backpressure waits).
type task struct {
	idx      int
	attempts int
}

// Run executes the grid without persistence and returns the aggregated
// report. Per-cell failures (a circuit too large for a machine point) are
// recorded in the cell's Error field and the run continues. A run cut
// short — its context ended, or no worker stayed healthy — returns the
// cause with the partial report, owed cells marked with it; the report is
// nil only when the grid does not expand.
func (c *Coordinator) Run(ctx context.Context, g sweep.Grid) (*sweep.Report, error) {
	e, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, e, nil)
}

// RunDir is Run with the resumable sweep.Dir layout: every completed cell
// is persisted under dir/cells/ as it finishes, so an interrupted run
// re-run over the same directory executes only the cells still owed, and
// a finished run writes dir/report.json and dir/report.csv. A directory
// holding a different grid is rejected, with a nil report, rather than
// overwritten.
func (c *Coordinator) RunDir(ctx context.Context, g sweep.Grid, dir string) (*sweep.Report, error) {
	e, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	d, err := sweep.OpenDir(dir, e)
	if err != nil {
		return nil, err
	}
	return c.run(ctx, e, d)
}

// run is the dispatch engine shared by Run and RunDir.
func (c *Coordinator) run(ctx context.Context, e *sweep.Expanded, d *sweep.Dir) (*sweep.Report, error) {
	var preloaded map[int]sweep.CellReport
	if d != nil {
		preloaded = d.Preloaded()
	}
	reports := make([]sweep.CellReport, len(e.Cells))
	var pending []int
	for i := range e.Cells {
		if r, ok := preloaded[i]; ok {
			reports[i] = r
		} else {
			pending = append(pending, i)
		}
	}
	c.met.cellsTotal.Add(int64(len(e.Cells)))
	c.met.cellsPreloaded.Add(int64(len(preloaded)))

	rep := &sweep.Report{Grid: e.Grid, Cells: reports}
	if len(pending) == 0 {
		if d != nil {
			if err := d.WriteReports(rep); err != nil {
				return rep, err
			}
		}
		return rep, ctx.Err()
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(errRunComplete)

	// Probe the fleet up front: a run with zero reachable workers ends
	// here, before dispatching, instead of timing out cell by cell — its
	// slots find the context canceled and exit at once. A context that
	// ends mid-probe keeps its own cause.
	healthy := 0
	for _, w := range c.workers {
		if w.probe(runCtx, c.cfg) {
			healthy++
		}
	}
	if healthy == 0 {
		cancel(fmt.Errorf("%w (probed %d)", ErrNoWorkers, len(c.workers)))
	}

	// The tasks channel holds every not-yet-completed cell; its capacity
	// covers all of them, so requeues (backpressure, reassignment) never
	// block a slot goroutine.
	tasks := make(chan task, len(pending))
	for _, i := range pending {
		tasks <- task{idx: i}
	}
	remaining := int64(len(pending))
	allDone := make(chan struct{})

	var cbMu sync.Mutex
	var persistErrs []error
	complete := func(cr sweep.CellReport, persist bool) {
		cbMu.Lock()
		reports[cr.Index] = cr
		if d != nil && persist {
			if err := d.Persist(cr); err != nil {
				persistErrs = append(persistErrs, err)
			}
		}
		if c.cfg.OnCell != nil {
			c.cfg.OnCell(cr)
		}
		cbMu.Unlock()
		if atomic.AddInt64(&remaining, -1) == 0 {
			close(allDone)
		}
	}

	// Background probe loop: revive unhealthy workers, and abort the run
	// if the whole fleet stays dark past NoWorkerTimeout.
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		c.probeLoop(runCtx, cancel)
	}()

	var slotWG sync.WaitGroup
	for _, w := range c.workers {
		slots := c.cfg.PerWorkerInFlight
		if slots <= 0 {
			slots = w.Advertised()
		}
		for s := 0; s < slots; s++ {
			slotWG.Add(1)
			go func(w *worker) {
				defer slotWG.Done()
				c.slotLoop(runCtx, w, e, tasks, allDone, complete)
			}(w)
		}
	}

	select {
	case <-allDone:
	case <-runCtx.Done():
	}
	cancel(errRunComplete)
	slotWG.Wait()
	probeWG.Wait()

	// Cells still owed after an abort are recorded transiently — never
	// persisted — so a resumed run executes them.
	cause := context.Cause(runCtx)
	for i := range reports {
		if reports[i].ID == "" {
			reports[i] = e.Cells[i].Skeleton()
			reports[i].Error = cause.Error()
		}
	}

	if err := ctx.Err(); err != nil {
		return rep, errors.Join(append(persistErrs, err)...)
	}
	if !errors.Is(cause, errRunComplete) {
		return rep, errors.Join(append(persistErrs, cause)...)
	}
	if d != nil {
		if err := d.WriteReports(rep); err != nil {
			persistErrs = append(persistErrs, err)
		}
	}
	return rep, errors.Join(persistErrs...)
}

// probeLoop periodically re-probes unhealthy workers and cancels the run
// with ErrNoWorkers when the whole fleet has been unhealthy for longer
// than NoWorkerTimeout.
func (c *Coordinator) probeLoop(ctx context.Context, cancel context.CancelCauseFunc) {
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	var unhealthySince time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		healthy := 0
		for _, w := range c.workers {
			if w.Healthy() {
				healthy++
				continue
			}
			if w.probe(ctx, c.cfg) {
				healthy++
				c.logf("coord: worker %s back in rotation", w.name)
			}
		}
		if healthy > 0 {
			unhealthySince = time.Time{}
			continue
		}
		if unhealthySince.IsZero() {
			unhealthySince = time.Now()
		} else if time.Since(unhealthySince) >= c.cfg.NoWorkerTimeout {
			c.logf("coord: aborting — no healthy workers for %s", c.cfg.NoWorkerTimeout)
			cancel(ErrNoWorkers)
			return
		}
	}
}

// slotLoop is one dispatch slot bound to one worker: it pulls cells only
// while the worker is healthy AND its circuit breaker admits dispatches,
// so an evicted or tripped worker's slots idle (cheaply polling health)
// instead of pulling cells they cannot serve. The breaker token is
// acquired before pulling a task — a half-open circuit admits exactly one
// trial — and released on every exit path that skips the dispatch.
func (c *Coordinator) slotLoop(ctx context.Context, w *worker, e *sweep.Expanded,
	tasks chan task, allDone <-chan struct{}, complete func(sweep.CellReport, bool)) {
	idle := c.cfg.ProbeInterval / 4
	if idle < 10*time.Millisecond {
		idle = 10 * time.Millisecond
	}
	if idle > 250*time.Millisecond {
		idle = 250 * time.Millisecond
	}
	for {
		if !w.Healthy() || !w.acquireBreaker(c.cfg) {
			select {
			case <-ctx.Done():
				return
			case <-allDone:
				return
			case <-time.After(idle):
			}
			continue
		}
		var t task
		select {
		case <-ctx.Done():
			w.releaseBreaker()
			return
		case <-allDone:
			w.releaseBreaker()
			return
		case t = <-tasks:
		}
		if ctx.Err() != nil {
			// select picks at random among ready cases; a cell pulled
			// after the run ended stays owed.
			w.releaseBreaker()
			return
		}
		c.dispatch(ctx, w, e, t, tasks, complete)
	}
}

// dispatch executes one cell on one worker and routes the outcome:
// success completes (and persists) the cell, backpressure sleeps the
// jittered Retry-After and requeues without spending the retry budget,
// and failure marks the worker unhealthy and reassigns the cell until its
// attempt budget is exhausted.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, e *sweep.Expanded,
	t task, tasks chan task, complete func(sweep.CellReport, bool)) {
	c.met.dispatched.Add(1)
	cr, res := w.executeCell(ctx, c.cfg, e, t.idx)
	switch res.kind {
	case dispatchOK:
		w.noteDispatch(false, c.cfg)
		c.met.completed.Add(1)
		complete(cr, true)

	case dispatchBackpressure:
		w.noteDispatch(false, c.cfg)
		c.met.retried.Add(1)
		delay := c.cfg.Backoff.Delay(t.attempts, res.retryAfter)
		c.logf("coord: worker %s at capacity, cell %d retries in %s", w.name, t.idx, delay.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return // the abort fill-in records the cell as owed
		case <-time.After(delay):
		}
		tasks <- t

	case dispatchReject:
		// The worker says this cell can never run (400). The coordinator
		// validated the same grid, so this is version drift, not load:
		// give up on the cell immediately but don't poison resume.
		w.noteDispatch(false, c.cfg)
		c.met.failed.Add(1)
		cr := e.Cells[t.idx].Skeleton()
		cr.Error = fmt.Sprintf("worker %s rejected cell: %v", w.name, res.err)
		complete(cr, false)

	case dispatchFailure:
		if ctx.Err() != nil {
			w.releaseBreaker() // shutdown, not a worker fault
			return
		}
		if w.noteDispatch(true, c.cfg) {
			c.met.breakerOpens.Add(1)
			c.logf("coord: worker %s circuit opened after %d consecutive dispatch faults (cooldown %s)",
				w.name, c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		}
		w.markUnhealthy(res.err)
		c.logf("coord: worker %s failed cell %d (attempt %d/%d): %v",
			w.name, t.idx, t.attempts+1, c.cfg.MaxAttempts, res.err)
		t.attempts++
		if t.attempts >= c.cfg.MaxAttempts {
			c.met.failed.Add(1)
			cr := e.Cells[t.idx].Skeleton()
			cr.Error = fmt.Sprintf("dispatch failed after %d attempts: %v", t.attempts, res.err)
			// Transient by nature (workers died, not the cell): recorded
			// in the report but never persisted, so resume retries it.
			complete(cr, false)
			return
		}
		c.met.reassigned.Add(1)
		tasks <- t
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
