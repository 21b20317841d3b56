package coord

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"muzzle/internal/obs"
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing to recover
}

// counters are the coordinator's cumulative dispatch counters.
type counters struct {
	cellsTotal     atomic.Int64
	cellsPreloaded atomic.Int64
	dispatched     atomic.Int64
	completed      atomic.Int64
	retried        atomic.Int64
	reassigned     atomic.Int64
	failed         atomic.Int64
	breakerOpens   atomic.Int64
}

// Metrics is a snapshot of the coordinator's dispatch state.
type Metrics struct {
	// CellsTotal counts cells across all runs; CellsPreloaded the subset
	// already satisfied by a resumable run dir.
	CellsTotal     int64 `json:"cells_total"`
	CellsPreloaded int64 `json:"cells_preloaded"`
	// Dispatched counts cell POSTs issued; Completed those that returned a
	// valid result; Retried the 429 backpressure waits; Reassigned the
	// cells re-queued after a worker failure; Failed the cells given up on.
	Dispatched int64 `json:"cells_dispatched"`
	Completed  int64 `json:"cells_completed"`
	Retried    int64 `json:"cells_retried"`
	Reassigned int64 `json:"cells_reassigned"`
	Failed     int64 `json:"cells_failed"`
	// BreakerOpens counts circuit-breaker opens across the fleet.
	BreakerOpens int64 `json:"breaker_opens"`

	Workers []WorkerMetrics `json:"workers"`
}

// WorkerMetrics is one worker's slice of the snapshot.
type WorkerMetrics struct {
	// URL is the worker's base URL, or "in-process".
	URL     string `json:"url"`
	ID      string `json:"id,omitempty"`
	Version string `json:"version,omitempty"`
	Healthy bool   `json:"healthy"`

	InFlight   int64 `json:"in_flight"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Errors     int64 `json:"errors"`

	// BreakerOpen reports an open circuit (dispatches suspended until
	// the cooldown's half-open trial); BreakerOpens counts how often
	// this worker's circuit has opened.
	BreakerOpen  bool  `json:"breaker_open,omitempty"`
	BreakerOpens int64 `json:"breaker_opens,omitempty"`

	// LatencySum/LatencyCount accumulate per-dispatch wall time (seconds),
	// Prometheus summary style: sum/count = mean dispatch latency.
	LatencySum   float64 `json:"latency_sum_seconds"`
	LatencyCount int64   `json:"latency_count"`

	LastError string `json:"last_error,omitempty"`
}

// MetricsSnapshot collects the current counters.
func (c *Coordinator) MetricsSnapshot() Metrics {
	out := Metrics{
		CellsTotal:     c.met.cellsTotal.Load(),
		CellsPreloaded: c.met.cellsPreloaded.Load(),
		Dispatched:     c.met.dispatched.Load(),
		Completed:      c.met.completed.Load(),
		Retried:        c.met.retried.Load(),
		Reassigned:     c.met.reassigned.Load(),
		Failed:         c.met.failed.Load(),
		BreakerOpens:   c.met.breakerOpens.Load(),
	}
	for _, w := range c.workers {
		w.mu.Lock()
		wm := WorkerMetrics{
			URL:     w.name,
			ID:      w.info.ID,
			Version: w.info.Version,
			Healthy: w.healthy,

			LastError: w.lastErr,
		}
		w.mu.Unlock()
		wm.InFlight = w.inflight.Load()
		wm.Dispatched = w.dispatched.Load()
		wm.Completed = w.completed.Load()
		wm.Errors = w.errors.Load()
		wm.LatencySum = time.Duration(w.latencyNS.Load()).Seconds()
		wm.LatencyCount = w.latencyN.Load()
		wm.BreakerOpen, wm.BreakerOpens = w.breakerSnapshot()
		out.Workers = append(out.Workers, wm)
	}
	return out
}

// Handler serves the coordinator's observability endpoints:
//
//	GET /healthz   liveness + per-worker health as JSON
//	GET /metrics   Prometheus-style text metrics
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	met := c.MetricsSnapshot()
	healthy := 0
	for _, wm := range met.Workers {
		if wm.Healthy {
			healthy++
		}
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		status = "no_workers"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":          status,
		"workers_total":   len(met.Workers),
		"workers_healthy": healthy,
		"metrics":         met,
	})
}

// handleMetrics serves the counters in the Prometheus text format.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	met := c.MetricsSnapshot()
	var p obs.Writer
	obs.Single(&p, "muzzlecoord_cells_total", obs.Counter, "Cells across all runs (preloaded included).", met.CellsTotal)
	obs.Single(&p, "muzzlecoord_cells_preloaded_total", obs.Counter, "Cells satisfied from a resumable run dir.", met.CellsPreloaded)
	obs.Single(&p, "muzzlecoord_cells_dispatched_total", obs.Counter, "Cell dispatch attempts POSTed to workers.", met.Dispatched)
	obs.Single(&p, "muzzlecoord_cells_completed_total", obs.Counter, "Cells completed with a valid worker result.", met.Completed)
	obs.Single(&p, "muzzlecoord_cells_retried_total", obs.Counter, "Dispatches retried after worker backpressure (429).", met.Retried)
	obs.Single(&p, "muzzlecoord_cells_reassigned_total", obs.Counter, "Cells reassigned after a worker failure.", met.Reassigned)
	obs.Single(&p, "muzzlecoord_cells_failed_total", obs.Counter, "Cells given up on after exhausting their attempt budget.", met.Failed)
	obs.Single(&p, "muzzlecoord_breaker_opens_total", obs.Counter, "Per-worker circuit breaker opens across the fleet.", met.BreakerOpens)

	perWorker(&p, met.Workers, "muzzlecoord_worker_healthy", obs.Gauge, "Worker health (1 = in rotation).",
		func(wm WorkerMetrics) bool { return wm.Healthy })
	perWorker(&p, met.Workers, "muzzlecoord_worker_in_flight", obs.Gauge, "Cells currently dispatched to the worker.",
		func(wm WorkerMetrics) int64 { return wm.InFlight })
	perWorker(&p, met.Workers, "muzzlecoord_worker_dispatched_total", obs.Counter, "Cell dispatch attempts sent to the worker.",
		func(wm WorkerMetrics) int64 { return wm.Dispatched })
	perWorker(&p, met.Workers, "muzzlecoord_worker_completed_total", obs.Counter, "Cells the worker completed.",
		func(wm WorkerMetrics) int64 { return wm.Completed })
	perWorker(&p, met.Workers, "muzzlecoord_worker_errors_total", obs.Counter, "Dispatch and probe failures attributed to the worker.",
		func(wm WorkerMetrics) int64 { return wm.Errors })
	perWorker(&p, met.Workers, "muzzlecoord_worker_latency_seconds_sum", obs.Counter, "Summed dispatch wall time.",
		func(wm WorkerMetrics) float64 { return wm.LatencySum })
	perWorker(&p, met.Workers, "muzzlecoord_worker_latency_seconds_count", obs.Counter, "Dispatches measured.",
		func(wm WorkerMetrics) int64 { return wm.LatencyCount })
	perWorker(&p, met.Workers, "muzzlecoord_worker_breaker_open", obs.Gauge, "Circuit breaker position (1 = open, dispatches suspended).",
		func(wm WorkerMetrics) bool { return wm.BreakerOpen })
	perWorker(&p, met.Workers, "muzzlecoord_worker_breaker_opens_total", obs.Counter, "Circuit breaker opens for the worker.",
		func(wm WorkerMetrics) int64 { return wm.BreakerOpens })
	p.Serve(w)
}

// perWorker writes one family with a sample per worker, labelled by URL.
func perWorker[V obs.Value](p *obs.Writer, ws []WorkerMetrics, name, typ, help string, value func(WorkerMetrics) V) {
	p.Family(name, typ, help)
	for _, wm := range ws {
		obs.Sample(p, name, "worker", wm.URL, value(wm))
	}
}
