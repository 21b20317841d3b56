package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"muzzle"
)

// newJobID returns a 96-bit random hex id.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// newJob returns an empty pending job record.
func newJob() *job {
	return &job{
		id:      newJobID(),
		state:   StatePending,
		created: time.Now(),
		subs:    make(map[chan Event]struct{}),
		ended:   make(chan struct{}),
	}
}

// prepare validates a request and fills the job's derived fields (parsed
// circuit, source, compiler set). It is shared by Submit and journal
// recovery: a recovered request re-validates against the current process's
// registry, so a job that no longer makes sense fails cleanly instead of
// crashing a worker.
func prepare(j *job, req Request) error {
	j.req = req
	switch {
	case req.QASM != "" && req.Random != nil:
		return badRequest("bad_request", "request must set exactly one of qasm/random, not both")
	case req.QASM == "" && req.Random == nil:
		return badRequest("bad_request", "request must set one of qasm/random")
	case req.QASM != "":
		name := req.Name
		if name == "" {
			name = "qasm"
		}
		c, err := muzzle.ParseQASM(name, req.QASM)
		if err != nil {
			return &RequestError{Code: "bad_qasm", Err: err}
		}
		j.circ = c
		j.source = SourceQASM
	default:
		if req.Random.Limit < 0 {
			return badRequest("bad_request", "random.limit %d must be >= 0", req.Random.Limit)
		}
		j.source = SourceRandom
	}
	seen := make(map[string]bool, len(req.Compilers))
	for _, name := range req.Compilers {
		if !muzzle.HasCompiler(name) {
			return badRequest("unknown_compiler",
				"compiler %q is not registered (registered: %v)", name, muzzle.RegisteredCompilers())
		}
		if seen[name] {
			return badRequest("bad_request", "compiler %q listed twice", name)
		}
		seen[name] = true
	}
	if req.TimeoutMS < 0 {
		return badRequest("bad_request", "timeout_ms %d must be >= 0", req.TimeoutMS)
	}
	j.compilers = append([]string(nil), req.Compilers...)
	return nil
}

// Submit validates a request, enqueues the job, and returns its initial
// view. Validation failures are *RequestError (the HTTP layer maps them to
// 400); admission rejections are ErrQueueFull (429 + Retry-After).
func (m *Manager) Submit(req Request) (JobView, error) {
	j := newJob()
	if err := prepare(j, req); err != nil {
		return JobView{}, err
	}
	return m.enqueue(j)
}

// enqueue admits a validated job: journal first (a job is acknowledged
// only once its submission is durable), then queue and table. Admission is
// checked against the configured depth, not the channel capacity — the
// channel is sized with headroom for recovered jobs, so the send below can
// never block once the depth check passes. The returned view is taken
// before publication, so it describes the job as admitted (pending) even
// when a worker finishes it, say on a cache hit, before the caller answers.
func (m *Manager) enqueue(j *job) (JobView, error) {
	// Record the pending event before the job becomes visible to workers,
	// so the replayed history is always in lifecycle order even when a
	// worker dequeues and starts the job immediately.
	j.emit(Event{Kind: EventState, State: StatePending})
	admitted := m.view(j)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobView{}, ErrClosed
	}
	if len(m.queue) >= m.cfg.QueueDepth {
		m.rejected++
		m.mu.Unlock()
		return JobView{}, ErrQueueFull
	}
	// The submit record is fsync'd while m.mu is held: admission, the
	// durable record, and queue publication must agree — a journaled job
	// is always tracked, and a tracked job is always journaled. Submission
	// throughput is bounded by one fsync either way.
	if err := m.journalSubmit(j); err != nil {
		m.mu.Unlock()
		return JobView{}, fmt.Errorf("service: journal submission: %w", err)
	}
	m.queue <- j
	m.jobs[j.id] = j
	m.submitted++
	m.mu.Unlock()
	return admitted, nil
}

// Get returns a job snapshot.
func (m *Manager) Get(id string) (JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobView{}, err
	}
	return m.view(j), nil
}

// Cancel requests cooperative cancellation: a pending job is canceled in
// place, a running one has its context canceled and drains promptly; a
// terminal job reports ErrFinished. A cancel is a client decision, so it
// is journaled — unlike shutdown cancellation — and a canceled job stays
// canceled across a daemon restart.
func (m *Manager) Cancel(id string) (JobView, error) {
	j, err := m.lookup(id)
	if err != nil {
		return JobView{}, err
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return m.view(j), ErrFinished
	case j.state == StatePending:
		now := time.Now()
		j.state = StateCanceled
		j.finished = &now
		j.userCanceled = true
		j.emitLocked(Event{Kind: EventState, State: StateCanceled})
		j.mu.Unlock()
		m.journalFinal(j, StateCanceled, "")
		m.retain(j.id)
	default: // running; j.cancel was set in the same critical section
		// that published the running state, so it is non-nil here.
		j.userCanceled = true
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
	}
	return m.view(j), nil
}

// Subscribe returns the job's event history so far plus a live channel for
// what follows; the channel is closed once the job is terminal. A live job
// gets a 4096-event buffer; a finished one, a closed unbuffered channel.
// Call the returned stop function when done listening.
func (m *Manager) Subscribe(id string) (history []Event, live <-chan Event, stopFn func(), err error) {
	j, err := m.lookup(id)
	if err != nil {
		return nil, nil, nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	if j.state.Terminal() {
		ch := make(chan Event)
		close(ch)
		return history, ch, func() {}, nil
	}
	ch := make(chan Event, 4096)
	j.subs[ch] = struct{}{}
	stopFn = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return history, ch, stopFn, nil
}

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

func (m *Manager) view(j *job) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:            j.id,
		State:         j.state,
		Source:        j.source,
		Compilers:     append([]string(nil), j.compilers...),
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		CircuitsTotal: j.total,
		CircuitsDone:  j.done,
		Error:         j.errText,
		Results:       append([]*muzzle.EvalResultJSON(nil), j.results...),
		Sweep:         j.report,
		Cell:          j.cell,
	}
}

// run executes one dequeued job on the calling worker. Panics are
// contained here so one poisoned job fails with a structured error
// instead of taking the worker goroutine — and the daemon — down with
// it; finish is idempotent, so containment never double-terminates a
// job that panicked after reaching a terminal state.
func (m *Manager) run(j *job) {
	defer func() {
		if p := recover(); p != nil {
			m.notePanic()
			m.finish(j, StateFailed, fmt.Sprintf("internal panic: %v", p))
		}
	}()
	if m.drainMode() {
		// Graceful drain: never-started jobs stay pending — in memory for
		// the remaining lifetime of this process, and in the journal for
		// the next one to recover. (A plain Close instead runs them against
		// the canceled base context so subscribers see a terminal event.)
		return
	}
	j.mu.Lock()
	if j.state != StatePending { // canceled while queued
		j.mu.Unlock()
		return
	}
	now := time.Now()
	j.state = StateRunning
	j.started = &now
	var ctx context.Context
	var cancel context.CancelFunc
	if j.req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, time.Duration(j.req.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()
	m.journalState(j, StateRunning)

	if j.source == SourceCell {
		m.runCellJob(ctx, j)
		return
	}
	if j.sweep != nil {
		m.runSweep(ctx, j)
		return
	}

	p, circuits, err := m.buildPipeline(j)
	if err != nil {
		m.finish(j, StateFailed, err.Error())
		return
	}
	j.mu.Lock()
	j.total = len(circuits)
	j.mu.Unlock()
	j.emit(Event{Kind: EventState, State: StateRunning})

	failures := 0
	for item := range p.EvaluateStream(ctx, circuits) {
		if item.Err != nil {
			failures++
			j.emit(Event{Kind: EventCircuit, Index: item.Index, Circuit: item.Circuit,
				Error: item.Err.Error()})
			continue
		}
		res := muzzle.EncodeEvalResult(item.Result)
		j.mu.Lock()
		j.done++
		j.results = append(j.results, res)
		j.mu.Unlock()
		j.emit(Event{Kind: EventCircuit, Index: item.Index, Circuit: item.Circuit, Result: res})
	}

	switch {
	case ctx.Err() == context.DeadlineExceeded:
		m.finish(j, StateFailed, fmt.Sprintf("timed out after %dms", j.req.TimeoutMS))
	case ctx.Err() != nil:
		m.finish(j, StateCanceled, "")
	case failures > 0:
		m.finish(j, StateFailed, fmt.Sprintf("%d of %d circuits failed", failures, len(circuits)))
	default:
		m.finish(j, StateDone, "")
	}
}

// buildPipeline assembles the job's pipeline — base options, shared cache
// and flight group, request overrides, and the latency-observing progress
// hook — plus the circuit list it will evaluate.
func (m *Manager) buildPipeline(j *job) (*muzzle.Pipeline, []*muzzle.Circuit, error) {
	opts := append([]muzzle.PipelineOption(nil), m.cfg.PipelineOptions...)
	if m.cfg.Cache != nil {
		opts = append(opts, muzzle.WithCache(m.cfg.Cache))
	}
	if m.cfg.Flight != nil {
		opts = append(opts, muzzle.WithFlight(m.cfg.Flight))
	}
	if len(j.req.Compilers) > 0 {
		opts = append(opts, muzzle.WithCompilers(j.req.Compilers...))
	}
	if j.req.Verify || m.cfg.Verify {
		opts = append(opts, muzzle.WithVerify())
	}
	if j.req.Random != nil {
		if j.req.Random.Seed != nil {
			opts = append(opts, muzzle.WithRandomSeed(*j.req.Random.Seed))
		}
		if j.req.Random.Limit > 0 {
			opts = append(opts, muzzle.WithRandomLimit(j.req.Random.Limit))
		}
	}
	// Per-circuit latency: wall time from pickup to completion (compile +
	// simulate for every compiler of the set; cache hits land in the
	// lowest buckets). The eval harness never runs the callback
	// concurrently with itself, so the map needs no lock.
	starts := make(map[int]time.Time)
	opts = append(opts, muzzle.WithProgress(func(ev muzzle.EvalEvent) {
		switch ev.Kind {
		case muzzle.EvalStarted:
			starts[ev.Index] = time.Now()
		case muzzle.EvalCompleted, muzzle.EvalFailed:
			if t0, ok := starts[ev.Index]; ok {
				m.latency.Observe(time.Since(t0).Seconds())
				delete(starts, ev.Index)
			}
		}
	}))
	p, err := muzzle.NewPipeline(opts...)
	if err != nil {
		return nil, nil, err
	}
	if j.circ != nil {
		return p, []*muzzle.Circuit{j.circ}, nil
	}
	return p, p.RandomCircuits(), nil
}

// finish records the terminal state and emits the closing event. Terminal
// states are journaled with their results — except cancellations the
// client never asked for (shutdown, drain deadline): those stay unlogged
// so the journal's last word on the job is pending/running and the next
// process recovers it.
func (m *Manager) finish(j *job, state State, errText string) {
	now := time.Now()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.finished = &now
	j.errText = errText
	userCanceled := j.userCanceled
	j.emitLocked(Event{Kind: EventState, State: state, Error: errText})
	j.mu.Unlock()
	if state != StateCanceled || userCanceled {
		m.journalFinal(j, state, errText)
	}
	m.retain(j.id)
}

// retain records a terminal job and drops the oldest-finished jobs beyond
// the retention cap so the job table cannot grow without bound.
func (m *Manager) retain(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terminal = append(m.terminal, id)
	for len(m.terminal) > m.cfg.JobRetention {
		delete(m.jobs, m.terminal[0])
		m.terminal = m.terminal[1:]
	}
}
