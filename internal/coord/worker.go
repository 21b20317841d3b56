package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muzzle/internal/sweep"
)

// CellRequest is the body of POST /v1/cells: it asks a muzzled worker to
// execute one cell of a sweep grid. The grid travels with the request, so
// workers stay stateless, and Index addresses the deterministic
// expansion-order cell list, so every worker given the same grid resolves
// the same cell to the same coordinates.
type CellRequest struct {
	// Grid is the full sweep grid the cell belongs to.
	Grid sweep.Grid `json:"grid"`
	// Index is the cell's position in the grid's expansion order.
	Index int `json:"index"`
	// TimeoutMS bounds the cell's run; 0 means no per-cell timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify runs the independent schedule verifier on the cell's
	// schedules; a violation fails the cell deterministically.
	Verify bool `json:"verify,omitempty"`
}

// WorkerInfo is the identity block a muzzled /healthz exposes so a
// coordinator can tell its workers apart and spot version drift across a
// fleet.
type WorkerInfo struct {
	ID       string `json:"id"`
	Version  string `json:"version"`
	Hostname string `json:"hostname,omitempty"`
	PID      int    `json:"pid"`
}

// runner is how a worker executes cells: on a muzzled daemon over HTTP
// (daemon) or in this process (inProcess).
type runner interface {
	// probe reports whether the runner can take cells, with its identity
	// and the number of cells it runs at once.
	probe(ctx context.Context, cfg Config) (WorkerInfo, int, error)
	// run executes one cell and classifies the outcome.
	run(ctx context.Context, cfg Config, e *sweep.Expanded, idx int) (sweep.CellReport, dispatchResult)
}

// worker is one member of the fleet: its runner, its last known health
// and identity, and its dispatch counters.
type worker struct {
	name   string // the daemon's base URL, or "in-process"
	runner runner

	mu         sync.Mutex
	healthy    bool       // guarded by mu
	info       WorkerInfo // guarded by mu
	advertised int        // guarded by mu; cells the runner takes at once, from its last probe
	lastErr    string     // guarded by mu

	// Circuit-breaker state, guarded by mu. The breaker is layered under
	// the probe-driven health bit: a worker can answer /healthz perfectly
	// while its cell dispatches keep failing (a flaky route, a broken
	// proxy), and the breaker is what stops the coordinator from burning
	// the cell retry budget against it. Closed admits dispatches; open
	// admits none until the cooldown elapses; half-open admits exactly
	// one trial dispatch whose outcome closes or re-opens the circuit.
	brk         breakerState
	brkConsec   int       // guarded by mu; consecutive dispatch failures
	brkOpenedAt time.Time // guarded by mu; when the circuit last opened
	brkProbing  bool      // guarded by mu; a half-open trial dispatch is in flight
	brkOpens    int64     // guarded by mu; cumulative opens, for metrics

	inflight   atomic.Int64
	dispatched atomic.Int64
	completed  atomic.Int64
	errors     atomic.Int64
	latencyNS  atomic.Int64
	latencyN   atomic.Int64
}

// newDaemonWorker validates and normalizes one muzzled base URL.
func newDaemonWorker(raw string) (*worker, error) {
	u, err := url.Parse(strings.TrimRight(raw, "/"))
	if err != nil {
		return nil, fmt.Errorf("coord: worker url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("coord: worker url %q: need http:// or https://", raw)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("coord: worker url %q: missing host", raw)
	}
	return &worker{name: u.String(), runner: daemon{url: u.String()}}, nil
}

// Healthy reports the worker's last probed/observed health.
func (w *worker) Healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// Advertised returns the cell count the runner advertised on its last
// successful probe (min 1, fallback 2 before any probe succeeded).
func (w *worker) Advertised() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.advertised < 1 {
		return 2
	}
	return w.advertised
}

// breakerState is the per-worker circuit position.
type breakerState int

const (
	brkClosed breakerState = iota
	brkOpen
	brkHalfOpen
)

// acquireBreaker asks the circuit for permission to dispatch. Closed
// always admits. Open admits nothing until the cooldown elapses, at
// which point the circuit moves to half-open; half-open admits one
// trial dispatch at a time (the caller holds the trial token until
// noteDispatch or releaseBreaker). A non-positive threshold disables
// the breaker.
func (w *worker) acquireBreaker(cfg Config) bool {
	if cfg.BreakerThreshold <= 0 {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.brk {
	case brkOpen:
		if time.Since(w.brkOpenedAt) < cfg.BreakerCooldown {
			return false
		}
		w.brk = brkHalfOpen
		fallthrough
	case brkHalfOpen:
		if w.brkProbing {
			return false
		}
		w.brkProbing = true
		return true
	default:
		return true
	}
}

// releaseBreaker returns an acquired trial token without a dispatch
// outcome (the run ended before a task arrived).
func (w *worker) releaseBreaker() {
	w.mu.Lock()
	w.brkProbing = false
	w.mu.Unlock()
}

// noteDispatch feeds one dispatch outcome to the circuit. Any contact
// that got a classified answer out of the worker — success, 429
// backpressure, even a 400 reject — counts as transport success and
// closes the circuit; only dispatchFailure counts against it. Returns
// true when this outcome opened the circuit.
func (w *worker) noteDispatch(failed bool, cfg Config) (opened bool) {
	if cfg.BreakerThreshold <= 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.brkProbing = false
	if !failed {
		w.brkConsec = 0
		w.brk = brkClosed
		return false
	}
	w.brkConsec++
	if w.brk == brkHalfOpen || (w.brk == brkClosed && w.brkConsec >= cfg.BreakerThreshold) {
		w.brk = brkOpen
		w.brkOpenedAt = time.Now()
		w.brkOpens++
		return true
	}
	return false
}

// breakerSnapshot reports the circuit position for metrics.
func (w *worker) breakerSnapshot() (open bool, opens int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.brk == brkOpen, w.brkOpens
}

// markUnhealthy takes the worker out of rotation until a probe revives it.
func (w *worker) markUnhealthy(err error) {
	w.mu.Lock()
	w.healthy = false
	if err != nil {
		w.lastErr = err.Error()
	}
	w.mu.Unlock()
	w.errors.Add(1)
}

// probe asks the runner whether the worker can take cells and updates its
// health, identity, and advertised cell count. A probe cut off by the end
// of the run says nothing about the worker and leaves its state alone.
func (w *worker) probe(ctx context.Context, cfg Config) bool {
	info, slots, err := w.runner.probe(ctx, cfg)
	if err != nil {
		if ctx.Err() == nil {
			w.markUnhealthy(err)
		}
		return false
	}
	w.mu.Lock()
	w.healthy = true
	w.info = info
	w.advertised = slots
	w.lastErr = ""
	w.mu.Unlock()
	return true
}

// dispatchKind classifies one cell dispatch attempt.
type dispatchKind int

const (
	dispatchOK           dispatchKind = iota // 200: deterministic result in hand
	dispatchBackpressure                     // 429: worker queue full, retry after hint
	dispatchReject                           // 400: worker says the cell can never run
	dispatchFailure                          // transport error / 5xx / timeout: reassign
)

// dispatchResult carries the classification plus its supporting detail.
type dispatchResult struct {
	kind       dispatchKind
	retryAfter time.Duration // backpressure hint, 0 if absent
	err        error
}

// executeCell runs one cell on the worker and classifies the outcome. A
// result is validated against the coordinator's own expansion (index and
// cell ID must match) so a drifted worker cannot corrupt the run dir.
func (w *worker) executeCell(ctx context.Context, cfg Config, e *sweep.Expanded, idx int) (sweep.CellReport, dispatchResult) {
	w.inflight.Add(1)
	w.dispatched.Add(1)
	start := time.Now()
	defer func() {
		w.latencyNS.Add(int64(time.Since(start)))
		w.latencyN.Add(1)
		w.inflight.Add(-1)
	}()

	cr, res := w.runner.run(ctx, cfg, e, idx)
	if res.kind != dispatchOK {
		return sweep.CellReport{}, res
	}
	if cr.Index != idx || cr.ID != e.Cells[idx].ID {
		return sweep.CellReport{}, dispatchResult{kind: dispatchFailure,
			err: fmt.Errorf("cell mismatch: asked for %d (%s), got %d (%s)", idx, e.Cells[idx].ID, cr.Index, cr.ID)}
	}
	w.completed.Add(1)
	return cr, res
}

// inProcess runs cells in this process through sweep's RunCell, sharing
// the Config's cache and flight group. It is always healthy and takes one
// cell per CPU at once.
type inProcess struct{}

func (inProcess) probe(context.Context, Config) (WorkerInfo, int, error) {
	return WorkerInfo{}, runtime.GOMAXPROCS(0), nil
}

func (inProcess) run(ctx context.Context, cfg Config, e *sweep.Expanded, idx int) (sweep.CellReport, dispatchResult) {
	cr, err := e.RunCell(ctx, idx, sweep.Options{Cache: cfg.Cache, Flight: cfg.Flight, Verify: cfg.Verify})
	switch {
	case err != nil:
		return cr, dispatchResult{kind: dispatchReject, err: err}
	case cr.Error != "" && ctx.Err() != nil:
		// Cut off by the end of the run, not a property of the cell: a
		// dispatch failure is never persisted, so a resumed run executes
		// the cell again.
		return cr, dispatchResult{kind: dispatchFailure, err: ctx.Err()}
	}
	return cr, dispatchResult{kind: dispatchOK}
}

// daemon runs cells on a muzzled worker over HTTP.
type daemon struct{ url string }

// healthzBody is the slice of the daemon's /healthz response the
// coordinator cares about.
type healthzBody struct {
	Status  string     `json:"status"`
	Workers int        `json:"workers"`
	Worker  WorkerInfo `json:"worker"`
}

// probe GETs the daemon's /healthz. A draining daemon is deliberately
// unhealthy: it refuses new cells (503), so keeping it in rotation only
// burns attempts.
func (d daemon) probe(ctx context.Context, cfg Config) (WorkerInfo, int, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
	if err != nil {
		return WorkerInfo{}, 0, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return WorkerInfo{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return WorkerInfo{}, 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	var hb healthzBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hb); err != nil {
		return WorkerInfo{}, 0, fmt.Errorf("healthz: decode: %w", err)
	}
	if hb.Status != "ok" {
		return WorkerInfo{}, 0, fmt.Errorf("healthz: status %q", hb.Status)
	}
	return hb.Worker, hb.Workers, nil
}

// run POSTs one cell to the daemon and classifies the response.
func (d daemon) run(ctx context.Context, cfg Config, e *sweep.Expanded, idx int) (sweep.CellReport, dispatchResult) {
	body, err := json.Marshal(CellRequest{Grid: e.Grid, Index: idx, Verify: cfg.Verify})
	if err != nil {
		return sweep.CellReport{}, dispatchResult{kind: dispatchReject, err: err}
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.CellTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return sweep.CellReport{}, dispatchResult{kind: dispatchFailure, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return sweep.CellReport{}, dispatchResult{kind: dispatchFailure, err: err}
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		var cr sweep.CellReport
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&cr); err != nil {
			return sweep.CellReport{}, dispatchResult{kind: dispatchFailure, err: fmt.Errorf("decode cell: %w", err)}
		}
		return cr, dispatchResult{kind: dispatchOK}
	case http.StatusTooManyRequests:
		return sweep.CellReport{}, dispatchResult{kind: dispatchBackpressure,
			retryAfter: RetryAfter(resp.Header), err: apiErrorOf(resp)}
	case http.StatusBadRequest:
		return sweep.CellReport{}, dispatchResult{kind: dispatchReject, err: apiErrorOf(resp)}
	default:
		// 503 (draining, canceled) and 5xx are all "not this worker, not
		// now": reassign the cell elsewhere.
		return sweep.CellReport{}, dispatchResult{kind: dispatchFailure, err: apiErrorOf(resp)}
	}
}

// apiErrorOf condenses a non-200 response body into an error.
func apiErrorOf(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body struct {
		Code  string `json:"code"`
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, body.Error)
	}
	return errors.New(resp.Status)
}
