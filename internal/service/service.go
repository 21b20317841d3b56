// Package service is the compilation service behind cmd/muzzled: a job
// manager that absorbs compile/evaluate requests into a bounded worker
// pool backed by muzzle.Pipeline, tracks each job through
// pending/running/done/failed/canceled, supports per-job cancellation via
// the Pipeline's context plumbing, and broadcasts per-circuit progress
// events that the HTTP layer streams to clients as SSE.
//
// A Manager owns nothing global: compilers resolve from the process-wide
// registry, results flow through the shared content-addressed cache when
// one is configured, and every job runs on its own Pipeline built from the
// manager's base options plus the request's overrides — the same code path
// the CLI uses, so CLI and service outputs are interchangeable.
//
// The package splits along its three concerns:
//
//	types.go      the domain vocabulary: states, requests, events, views
//	scheduler.go  admission, the bounded queue, workers, cancellation
//	journal.go    the store adapter: journaling and startup recovery
//	http.go       the HTTP/SSE transport
//	service.go    (this file) lifecycle: Config, New, Drain, Close, metrics
//
// With Config.Journal set the manager is durable: every submission, state
// transition, and terminal result is appended to the write-ahead journal
// (internal/store), and New replays it so a restarted daemon — cleanly
// drained or killed outright — re-enqueues the jobs it owed. Recovery is
// idempotent because completed work re-resolves through the
// content-addressed cache, and Config.Flight coalesces identical work that
// is merely concurrent. Admission is bounded: past QueueDepth pending
// jobs, submits fail with ErrQueueFull (HTTP 429 + Retry-After) instead of
// buffering without limit.
package service

import (
	"context"
	"os"
	"sync"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/obs"
	"muzzle/internal/store"
	"muzzle/internal/sweep"
)

// Config assembles a Manager.
type Config struct {
	// Workers sizes the worker pool (default 2). Each worker runs one job
	// at a time; per-job circuit parallelism is set via PipelineOptions.
	Workers int
	// QueueDepth bounds pending jobs (default 256); submits beyond it fail
	// with ErrQueueFull rather than blocking the caller. Jobs recovered
	// from the journal are admitted above the bound (they were already
	// accepted by a previous process), so a freshly restarted daemon may
	// report a depth above QueueDepth until the backlog drains.
	QueueDepth int
	// JobRetention bounds how many terminal (done/failed/canceled) jobs
	// stay queryable (default 1024). Beyond it the oldest-finished jobs —
	// results and event history included — are dropped and their ids
	// return 404, keeping a long-lived daemon's memory bounded.
	JobRetention int
	// Cache, when non-nil, is shared by every job's pipeline — sweep cells
	// included — and its counters are exported via Metrics and /metrics.
	Cache *muzzle.Cache
	// Flight, when non-nil, coalesces concurrent identical evaluations
	// across every job and sweep cell of the daemon: duplicates that miss
	// the cache share one compile instead of racing. Counters are exported
	// via Metrics and /metrics.
	Flight *muzzle.Flight
	// Journal, when non-nil, makes the job table durable: submissions,
	// transitions, and terminal results are appended (fsync'd) as they
	// happen, and New replays the journal so pending and running jobs of a
	// dead process restart as pending. The manager assumes sole ownership
	// of the journal until Close.
	Journal *store.Journal
	// SweepParallelism bounds concurrently running cells of one sweep job
	// (0 = one per CPU).
	SweepParallelism int
	// PipelineOptions are the base options of every job's pipeline
	// (machine, sim params, parallelism, ...); the request's compiler,
	// seed, and limit overrides are appended after them.
	PipelineOptions []muzzle.PipelineOption
	// Verify forces the independent schedule verifier on every job and
	// sweep cell, regardless of the per-request Verify field (the muzzled
	// -verify flag).
	Verify bool
	// WorkerID names this daemon in the /healthz worker identity block so
	// a sweep coordinator can tell its workers apart; empty generates a
	// random id per process.
	WorkerID string
}

// Manager owns the job table, the bounded queue, and the worker pool.
type Manager struct {
	cfg     Config
	start   time.Time
	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *job
	wg      sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*job // guarded by mu
	terminal  []string        // guarded by mu; terminal job ids, oldest first, for retention
	closed    bool            // guarded by mu
	draining  bool            // guarded by mu
	submitted uint64          // guarded by mu
	rejected  uint64          // guarded by mu
	recovered uint64          // guarded by mu
	storeErrs uint64          // guarded by mu
	panics    uint64          // guarded by mu

	// Expansion cache for POST /v1/cells: one coordinator sends many
	// cells of the same grid, each carrying the full grid JSON.
	expMu    sync.Mutex
	expCache map[string]*sweep.Expanded // guarded by expMu
	expOrder []string                   // guarded by expMu

	hostname string
	latency  *obs.Histogram
}

// New starts a Manager and its workers. With Config.Journal set it first
// replays the journal: terminal jobs come back queryable, and jobs the
// previous process never finished — pending or running — are re-enqueued
// as pending ahead of any new submission.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = 1024
	}
	if cfg.WorkerID == "" {
		cfg.WorkerID = newJobID()
	}
	host, _ := os.Hostname()
	ctx, stop := context.WithCancel(context.Background()) //muzzle:ctx-background daemon lifecycle root: jobs outlive any one request; Close cancels it
	m := &Manager{
		cfg:      cfg,
		start:    time.Now(),
		baseCtx:  ctx,
		stop:     stop,
		jobs:     make(map[string]*job),
		expCache: make(map[string]*sweep.Expanded),
		hostname: host,
		// Compile-latency bounds in seconds: sub-millisecond buckets catch
		// cache hits, the top ones cover full 75-qubit random-suite compiles.
		latency: obs.NewHistogram([]float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}),
	}
	// Recovery runs before the queue exists so the channel can be sized to
	// hold every recovered job on top of the configured depth — re-admitting
	// an already-accepted backlog must never block or deadlock startup.
	// Admission checks compare against cfg.QueueDepth, not the channel
	// capacity, so the bound still holds for new submissions.
	pending := m.recoverJobs()
	m.queue = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		m.queue <- j
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.run(j)
			}
		}()
	}
	return m
}

// Close stops accepting jobs, cancels everything in flight, and waits for
// the workers. Queued jobs drain as canceled in memory, but — like jobs
// canceled by the shutdown itself — their cancellation is not journaled,
// so a journaled manager's next incarnation recovers them as pending. For
// an orderly exit that lets running work complete, use Drain.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	close(m.queue)
	m.wg.Wait()
}

// Drain is the graceful half of shutdown: it stops admission (submits fail
// with ErrClosed → HTTP 503), leaves queued jobs untouched for the next
// process (journaled as pending; workers skip rather than start them),
// lets running jobs finish until ctx expires, hard-cancels any stragglers,
// then checkpoints the journal. It returns once every worker has exited.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.draining = true
	m.mu.Unlock()
	close(m.queue)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.stop() // deadline passed: cancel running jobs (recovered as pending)
		<-done
	}
	if m.cfg.Journal != nil {
		if err := m.cfg.Journal.Compact(); err != nil {
			m.noteStoreError()
		}
	}
}

// Draining reports whether the manager is refusing new work while a Drain
// or Close winds it down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// drainMode reports whether a graceful Drain (as opposed to a hard Close)
// is in progress — workers use it to leave queued jobs untouched.
func (m *Manager) drainMode() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// RetryAfterSeconds estimates when a client rejected by admission control
// should retry: the current backlog divided across the worker pool, priced
// at the mean observed per-circuit latency, clamped to [1, 60] seconds.
func (m *Manager) RetryAfterSeconds() int {
	h := m.latency.Snapshot()
	mean := 1.0
	if h.Count > 0 {
		mean = h.Sum / float64(h.Count)
	}
	secs := int(mean * float64(len(m.queue)) / float64(m.cfg.Workers))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// WorkerInfo returns the identity block /healthz exposes so a coordinator
// can tell its workers apart and spot version drift across a fleet.
func (m *Manager) WorkerInfo() coord.WorkerInfo {
	return coord.WorkerInfo{ID: m.cfg.WorkerID, Version: Version, Hostname: m.hostname, PID: os.Getpid()}
}

// Metrics is the observable state of the service.
type Metrics struct {
	UptimeSeconds     float64             `json:"uptime_seconds"`
	Workers           int                 `json:"workers"`
	Draining          bool                `json:"draining"`
	JobsSubmitted     uint64              `json:"jobs_submitted"`
	JobsRecovered     uint64              `json:"jobs_recovered"`
	JobsByState       map[State]int       `json:"jobs_by_state"`
	QueueDepth        int                 `json:"queue_depth"`
	QueueCapacity     int                 `json:"queue_capacity"`
	AdmissionRejected uint64              `json:"admission_rejected"`
	Cache             *muzzle.CacheStats  `json:"cache,omitempty"`
	Flight            *muzzle.FlightStats `json:"flight,omitempty"`
	Store             *store.Stats        `json:"store,omitempty"`
	StoreErrors       uint64              `json:"store_errors"`
	// PanicsRecovered counts panics contained by the HTTP layer and the
	// job workers — each one is a bug, but a structured 500 or a failed
	// job instead of a dead daemon.
	PanicsRecovered uint64                `json:"panics_recovered"`
	CompileLatency  obs.HistogramSnapshot `json:"compile_latency_seconds"`
}

// Degraded reports the per-component degraded states the daemon exposes
// on /healthz: a component is degraded when it is operating in a reduced
// mode (serving from memory only, skipping journal writes) rather than
// failing requests. The map is stable: every known component is always
// present.
func (met Metrics) Degraded() map[string]bool {
	return map[string]bool{
		// cache_disk: the disk tier tripped after consecutive I/O errors
		// and the cache is serving memory-only until a re-probe succeeds.
		"cache_disk": met.Cache != nil && met.Cache.DiskTripped,
		// journal: at least one append/compact failed this process, so
		// recovery fidelity is reduced (jobs replay from their last
		// durable state).
		"journal": met.StoreErrors > 0,
	}
}

// MetricsSnapshot collects the current counters.
func (m *Manager) MetricsSnapshot() Metrics {
	out := Metrics{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Workers:       m.cfg.Workers,
		QueueDepth:    len(m.queue),
		QueueCapacity: m.cfg.QueueDepth,
		JobsByState: map[State]int{
			StatePending: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
		},
		CompileLatency: m.latency.Snapshot(),
	}
	m.mu.Lock()
	out.Draining = m.closed
	out.JobsSubmitted = m.submitted
	out.JobsRecovered = m.recovered
	out.AdmissionRejected = m.rejected
	out.StoreErrors = m.storeErrs
	out.PanicsRecovered = m.panics
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		out.JobsByState[j.state]++
		j.mu.Unlock()
	}
	if m.cfg.Cache != nil {
		s := m.cfg.Cache.Stats()
		out.Cache = &s
	}
	if m.cfg.Flight != nil {
		s := m.cfg.Flight.Stats()
		out.Flight = &s
	}
	if m.cfg.Journal != nil {
		s := m.cfg.Journal.Stats()
		out.Store = &s
	}
	return out
}

// noteStoreError counts a journal append/compact failure. The job keeps
// running — an unjournaled transition degrades recovery fidelity (the job
// replays from its last durable state), which beats failing live work over
// a disk hiccup — but the counter surfaces the problem on /metrics.
func (m *Manager) noteStoreError() {
	m.mu.Lock()
	m.storeErrs++
	m.mu.Unlock()
}

// notePanic counts a recovered panic (HTTP handler or job worker).
func (m *Manager) notePanic() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}
