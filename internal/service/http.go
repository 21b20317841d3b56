package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"muzzle"
	"muzzle/internal/obs"
	"muzzle/internal/sweep"
)

// Handler returns the muzzled HTTP API over this manager:
//
//	POST   /v1/jobs               submit a job (202 + Location)
//	GET    /v1/jobs/{id}          job snapshot with results
//	DELETE /v1/jobs/{id}          cancel (200; 409 when already finished)
//	GET    /v1/jobs/{id}/stream   SSE: replayed history + live events
//	POST   /v1/sweeps             submit a scenario-sweep grid (202 + Location)
//	GET    /v1/sweeps/{id}        sweep snapshot with aggregated report
//	DELETE /v1/sweeps/{id}        cancel a sweep
//	GET    /v1/sweeps/{id}/stream SSE: one "cell" event per finished cell
//	POST   /v1/cells              execute one sweep cell synchronously (the
//	                              distributed coordinator's dispatch target)
//	GET    /v1/compilers          registry listing
//	GET    /healthz               liveness + uptime + worker identity
//	GET    /metrics               Prometheus-style text metrics
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", m.handleSubmit)
	mux.HandleFunc("POST /v1/cells", m.handleCell)
	mux.HandleFunc("GET /v1/jobs/{id}", m.namespaceOnly(false, m.handleGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", m.namespaceOnly(false, m.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/stream", m.namespaceOnly(false, m.handleStream))
	mux.HandleFunc("POST /v1/sweeps", m.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", m.namespaceOnly(true, m.handleGet))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", m.namespaceOnly(true, m.handleCancel))
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", m.namespaceOnly(true, m.handleStream))
	mux.HandleFunc("GET /v1/compilers", m.handleCompilers)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	return m.recoverware(mux)
}

// recoverware contains handler panics: a panicking handler answers a
// structured 500 instead of killing the connection with an empty reply,
// and the panic is counted on /metrics. http.ErrAbortHandler is the
// documented way to abort a response on purpose and is re-raised
// untouched — net/http suppresses its stack trace, and tests rely on it
// to simulate a worker dying mid-reply.
func (m *Manager) recoverware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			m.notePanic()
			// If the handler already wrote headers this lands in the body
			// of a broken reply, which is no worse than the bare abort the
			// panic would have caused.
			writeError(w, http.StatusInternalServerError, "panic",
				fmt.Errorf("service: handler panicked: %v", p))
		}()
		next.ServeHTTP(w, r)
	})
}

// apiError is the JSON error body: a stable code plus a human message.
type apiError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, apiError{Code: code, Error: err.Error()})
}

// maxRequestBody bounds POST bodies (QASM sources are text; 4 MiB is
// thousands of times the paper's largest benchmark) so one client cannot
// exhaust the daemon's memory.
const maxRequestBody = 4 << 20

// decodeBody decodes a POST body as one JSON value into v, rejecting
// unknown fields, anything but whitespace after the value, and bodies past
// maxRequestBody. On failure it has answered 413 too_large or 400
// bad_json, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value.
		if _, err = dec.Token(); errors.Is(err, io.EOF) {
			return true
		}
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err)
	} else {
		writeError(w, http.StatusBadRequest, "bad_json", err)
	}
	return false
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	view, err := m.Submit(req)
	if err != nil {
		m.submitErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// submitErr maps a Submit/SubmitSweep failure onto the API's status codes.
// Admission rejections are 429 with a Retry-After estimate (the backlog is
// temporary: retry once it drains); a draining daemon answers 503 (this
// process will never accept the job — go elsewhere or wait for a restart).
func (m *Manager) submitErr(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, reqErr.Code, reqErr.Err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(m.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "queue_full", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err)
	}
}

func (m *Manager) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var grid sweep.Grid
	if !decodeBody(w, r, &grid) {
		return
	}
	view, err := m.SubmitSweep(grid)
	if err != nil {
		m.submitErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// namespaceOnly guards a generic {id} handler so each namespace serves
// only its own job kind: /v1/sweeps rejects compile-job ids and /v1/jobs
// rejects sweep ids, both with 404 — a mixed-up id must never fetch,
// cancel, or stream a job of the other kind.
func (m *Manager) namespaceOnly(wantSweep bool, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view, err := m.Get(r.PathValue("id"))
		if err != nil || (view.Source == "sweep") != wantSweep {
			writeError(w, http.StatusNotFound, "not_found", ErrNotFound)
			return
		}
		next(w, r)
	}
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := m.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "not_found", err)
	case errors.Is(err, ErrFinished):
		writeError(w, http.StatusConflict, "already_finished", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", err)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

// lastEventID parses the SSE Last-Event-ID request header into the highest
// sequence number the client has already seen, or -1 when absent or
// malformed (malformed values degrade to a full history replay, never an
// error — the header is advisory).
func lastEventID(r *http.Request) int {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		return -1
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	history, live, stop, err := m.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err)
		return
	}
	defer stop()
	lastSeen := lastEventID(r)
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "no_stream",
			errors.New("service: response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// Resume semantics: a reconnecting EventSource client sends the id of
	// the last event it processed; everything at or below that sequence
	// number is skipped (history and, defensively, live events) so clients
	// see each event exactly once across reconnects instead of a full
	// replay. Event sequence numbers are per-job and strictly increasing.
	for _, ev := range history {
		if ev.Seq <= lastSeen {
			continue
		}
		if !send(ev) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // terminal event delivered; stream complete
			}
			if ev.Seq <= lastSeen {
				continue
			}
			if !send(ev) {
				return
			}
		}
	}
}

func (m *Manager) handleCompilers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"compilers": muzzle.CompilerCatalog()})
}

func (m *Manager) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	met := m.MetricsSnapshot()
	status := "ok"
	if met.Draining {
		status = "draining"
	}
	// Degraded components do not change the status: a daemon serving from
	// memory only (or skipping journal writes) still completes every
	// request, and a coordinator must keep dispatching to it. The block
	// tells operators what reduced mode, if any, the daemon is in.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": met.UptimeSeconds,
		"workers":        met.Workers,
		"jobs_submitted": met.JobsSubmitted,
		"queue_depth":    met.QueueDepth,
		"queue_capacity": met.QueueCapacity,
		"degraded":       met.Degraded(),
		"worker":         m.WorkerInfo(),
	})
}

// handleMetrics serves the counters in the Prometheus text format.
func (m *Manager) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	met := m.MetricsSnapshot()
	var p obs.Writer
	obs.Single(&p, "muzzled_uptime_seconds", obs.Gauge, "Seconds since the service started.", met.UptimeSeconds)
	obs.Single(&p, "muzzled_jobs_submitted_total", obs.Counter, "Jobs accepted since start.", met.JobsSubmitted)
	p.Family("muzzled_jobs", obs.Gauge, "Jobs currently tracked, by state.")
	for _, s := range []State{StatePending, StateRunning, StateDone, StateFailed, StateCanceled} {
		obs.Sample(&p, "muzzled_jobs", "state", string(s), met.JobsByState[s])
	}
	obs.Single(&p, "muzzled_jobs_recovered_total", obs.Counter, "Jobs replayed from the journal at startup.", met.JobsRecovered)
	obs.Single(&p, "muzzled_queue_depth", obs.Gauge, "Jobs waiting in the admission queue.", met.QueueDepth)
	obs.Single(&p, "muzzled_queue_capacity", obs.Gauge, "Admission bound: submits past this pending depth are rejected.", met.QueueCapacity)
	obs.Single(&p, "muzzled_admission_rejected_total", obs.Counter, "Submits rejected with 429 by the queue-depth bound.", met.AdmissionRejected)
	obs.Single(&p, "muzzled_draining", obs.Gauge, "Whether the daemon is refusing new submissions while shutting down.", met.Draining)
	p.Family("muzzled_degraded", obs.Gauge, "Per-component degraded state (1 = operating in reduced mode, still serving).")
	deg := met.Degraded()
	for _, comp := range []string{"cache_disk", "journal"} {
		obs.Sample(&p, "muzzled_degraded", "component", comp, deg[comp])
	}
	obs.Single(&p, "muzzled_panics_recovered_total", obs.Counter, "Panics contained by the HTTP layer and job workers.", met.PanicsRecovered)

	if f := met.Flight; f != nil {
		obs.Single(&p, "muzzled_flight_executions_total", obs.Counter, "Evaluations that ran as a single-flight leader.", f.Executions)
		obs.Single(&p, "muzzled_flight_coalesced_total", obs.Counter, "Evaluations that shared another caller's in-flight execution.", f.Coalesced)
		obs.Single(&p, "muzzled_flight_retries_total", obs.Counter, "Followers re-executed because their leader aborted on its own context.", f.Retries)
		obs.Single(&p, "muzzled_flight_in_flight", obs.Gauge, "Distinct evaluations currently executing under the group.", f.InFlight)
	}

	if s := met.Store; s != nil {
		obs.Single(&p, "muzzled_store_appends_total", obs.Counter, "Journal records fsync'd this process.", s.Appends)
		obs.Single(&p, "muzzled_store_compactions_total", obs.Counter, "Journal snapshot folds this process.", s.Compactions)
		obs.Single(&p, "muzzled_store_replayed_records", obs.Gauge, "Journal WAL records replayed at startup.", s.Replayed)
		obs.Single(&p, "muzzled_store_truncated_bytes", obs.Gauge, "Torn WAL tail discarded at startup.", s.TruncatedBytes)
		obs.Single(&p, "muzzled_store_jobs", obs.Gauge, "Jobs tracked by the journal.", s.Jobs)
		obs.Single(&p, "muzzled_store_wal_bytes", obs.Gauge, "Current journal WAL size.", s.WALBytes)
		obs.Single(&p, "muzzled_store_errors_total", obs.Counter, "Journal appends or compactions that failed (recovery fidelity degraded).", met.StoreErrors)
	}

	if c := met.Cache; c != nil {
		obs.Single(&p, "muzzled_cache_hits_total", obs.Counter, "Compile-cache hits (memory + disk).", c.Hits)
		obs.Single(&p, "muzzled_cache_misses_total", obs.Counter, "Compile-cache misses.", c.Misses)
		obs.Single(&p, "muzzled_cache_disk_hits_total", obs.Counter, "Hits served from the disk tier.", c.DiskHits)
		obs.Single(&p, "muzzled_cache_evictions_total", obs.Counter, "In-memory LRU evictions.", c.Evictions)
		obs.Single(&p, "muzzled_cache_entries", obs.Gauge, "In-memory cache entries.", c.Entries)
		obs.Single(&p, "muzzled_cache_disk_entries", obs.Gauge, "Resident files in the disk tier.", c.DiskEntries)
		obs.Single(&p, "muzzled_cache_disk_evictions_total", obs.Counter, "Disk-tier files deleted by the size bound.", c.DiskEvictions)
		obs.Single(&p, "muzzled_cache_disk_errors_total", obs.Counter, "Disk-tier read/write/sweep I/O failures (served from memory instead).", c.DiskErrors)
		obs.Single(&p, "muzzled_cache_disk_trips_total", obs.Counter, "Times the disk tier tripped to memory-only after consecutive I/O errors.", c.DiskTrips)
	}

	p.Histogram("muzzled_compile_latency_seconds", "Per-circuit evaluation wall time (compile + simulate across the compiler set; cache hits land in the lowest buckets).", met.CompileLatency)
	p.Serve(w)
}
