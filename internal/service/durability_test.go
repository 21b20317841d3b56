package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"muzzle"
	"muzzle/internal/service"
	"muzzle/internal/store"
	"muzzle/internal/sweep"
)

// gate is a registered compiler whose factory counts its invocations and
// then blocks until a token is released — the deterministic handle the
// durability tests use to freeze a worker mid-compile. The factory reads
// its generation before blocking, so a test can abandon a wedged manager
// (simulated kill -9), bump the generation, and release tokens that only
// the *new* manager's workers can consume: the old worker stays frozen on
// the retired generation forever, exactly like a dead process.
type gate struct {
	name   string
	count  atomic.Int64
	gen    atomic.Int32
	tokens [2]chan struct{}
}

// gates numbers the gates newGate registers.
var gates atomic.Int32

// newGate registers a gate under a compiler name of its own. Each run of a
// test, -count repetitions included, takes a new gate, so tokens one run
// leaves unused, or a worker it leaves frozen, can never reach another.
func newGate(prefix string) *gate {
	g := &gate{name: fmt.Sprintf("%s-%d", prefix, gates.Add(1))}
	g.tokens[0] = make(chan struct{}, 1024)
	g.tokens[1] = make(chan struct{}, 1024)
	muzzle.MustRegisterCompiler(g.name, func() *muzzle.Compiler {
		gen := g.gen.Load()
		g.count.Add(1)
		<-g.tokens[gen]
		return muzzle.NewOptimizedCompiler()
	})
	return g
}

// allow releases n compile tokens for the given generation.
func (g *gate) allow(gen int32, n int) {
	for i := 0; i < n; i++ {
		g.tokens[gen] <- struct{}{}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitState polls until the job reaches a terminal state and returns the
// final view.
func waitState(t *testing.T, mgr *service.Manager, id string, want service.State) service.JobView {
	t.Helper()
	var v service.JobView
	waitFor(t, fmt.Sprintf("job %s to reach %s", id, want), func() bool {
		var err error
		v, err = mgr.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		return v.State == want || v.State.Terminal()
	})
	if v.State != want {
		t.Fatalf("job %s = %s (%s), want %s", id, v.State, v.Error, want)
	}
	return v
}

// testGrid is a 6-cell sweep (2 capacities x 3 circuits on a 3-trap line)
// compiled by the given single compiler.
func durabilityGrid(compiler string) sweep.Grid {
	return sweep.Grid{
		Name:           "durability",
		Topologies:     []sweep.TopologySpec{{Family: sweep.FamilyLine, Traps: 3}},
		Capacities:     []int{5, 6},
		CommCapacities: []int{2},
		Compilers:      []string{compiler},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitQFT, Qubits: 5},
			{Kind: sweep.CircuitRandom, Qubits: 5, Gates2Q: 8, Seed: 7, Count: 2},
		},
	}
}

// TestCrashRecoverySweep is the kill -9 end-to-end: a sweep crashes
// mid-run with no clean shutdown, a fresh manager replays the journal, and
// the recovered sweep finishes without re-compiling any finished cell —
// every completed cell is served by the shared content-addressed cache.
func TestCrashRecoverySweep(t *testing.T) {
	crashGate := newGate("crashgate")
	dir := t.TempDir()
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := store.Open(filepath.Join(dir, "journal"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// mgr1 is the victim. It is never closed: the "crash" below abandons it
	// with its only worker frozen inside a compile, exactly as SIGKILL
	// would leave the journal. (The goroutine leaks for the remainder of
	// the test binary; that is the point.)
	mgr1 := service.New(service.Config{
		Workers: 1, SweepParallelism: 1, Cache: cache, Journal: j1,
	})
	view, err := mgr1.SubmitSweep(durabilityGrid(crashGate.name))
	if err != nil {
		t.Fatal(err)
	}
	total := view.CircuitsTotal
	if total != 6 {
		t.Fatalf("grid expands to %d cells, want 6", total)
	}

	// Let exactly `allow` cells finish; the next cell freezes mid-compile.
	const allow = 2
	crashGate.allow(0, allow)
	waitFor(t, "worker to freeze in cell 3's compile", func() bool {
		return crashGate.count.Load() == allow+1
	})
	if e := cache.Stats().Entries; e != allow {
		t.Fatalf("cache entries before crash = %d, want %d", e, allow)
	}
	baseCount := crashGate.count.Load()
	baseHits := cache.Stats().Hits

	// CRASH: abandon mgr1 and j1 (no Close, no Drain, no compaction) and
	// recover from the on-disk WAL alone.
	crashGate.gen.Store(1)
	crashGate.allow(1, total+2)
	j2, err := store.Open(filepath.Join(dir, "journal"), store.Options{})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	mgr2 := service.New(service.Config{
		Workers: 1, SweepParallelism: 1, Cache: cache, Journal: j2,
	})
	t.Cleanup(func() {
		mgr2.Close()
		j2.Close()
	})
	if got := mgr2.MetricsSnapshot().JobsRecovered; got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	// Same id, same source, back in the run queue.
	v2, err := mgr2.Get(view.ID)
	if err != nil {
		t.Fatalf("recovered job lost: %v", err)
	}
	if v2.Source != service.SourceSweep {
		t.Fatalf("recovered source = %q", v2.Source)
	}
	final := waitState(t, mgr2, view.ID, service.StateDone)
	if final.CircuitsDone != total || final.Sweep == nil {
		t.Fatalf("recovered sweep: done=%d/%d, report=%v", final.CircuitsDone, total, final.Sweep != nil)
	}
	if n := final.Sweep.Failures(); n != 0 {
		t.Fatalf("%d cells failed after recovery", n)
	}

	// Zero re-compiles of finished cells: the restarted run compiled only
	// the cells the crash interrupted or never reached, and served every
	// finished cell from the cache.
	if got, want := crashGate.count.Load()-baseCount, int64(total-allow); got != want {
		t.Fatalf("compiles after restart = %d, want %d (finished cells must not re-compile)", got, want)
	}
	if got, want := cache.Stats().Hits-baseHits, uint64(allow); got != want {
		t.Fatalf("cache hits after restart = %d, want %d", got, want)
	}
}

// TestSingleFlightEndToEnd proves two concurrent identical submissions
// cost exactly one compiler invocation: the second coalesces onto the
// first's in-flight execution, verified down to the factory counter and
// up to the /metrics counters.
func TestSingleFlightEndToEnd(t *testing.T) {
	flightGate := newGate("flightgate")
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	flight := muzzle.NewFlight()
	mgr, srv := newTestServer(t, service.Config{Workers: 2, Cache: cache, Flight: flight})
	// Registered after newTestServer so it runs before the manager's Close:
	// a failed test must not leave the leader frozen under Close's wait.
	t.Cleanup(func() { flightGate.allow(0, 8) })

	base := flightGate.count.Load()
	req := service.Request{Name: "dup", QASM: testQASM, Compilers: []string{flightGate.name}}
	v1 := submit(t, srv, req)
	v2 := submit(t, srv, req)

	// One submission leads (frozen in the gated factory), the other must
	// coalesce onto it — only then is the gate released.
	waitFor(t, "second submission to coalesce", func() bool {
		return flight.Stats().Coalesced >= 1
	})
	flightGate.allow(0, 2)

	r1 := waitState(t, mgr, v1.ID, service.StateDone)
	r2 := waitState(t, mgr, v2.ID, service.StateDone)
	if got := flightGate.count.Load() - base; got != 1 {
		t.Fatalf("compiler invocations = %d, want exactly 1", got)
	}
	fs := flight.Stats()
	if fs.Executions != 1 || fs.Coalesced != 1 || fs.InFlight != 0 {
		t.Fatalf("flight stats = %+v", fs)
	}
	// Three misses: one per caller before entering the flight group, plus
	// the leader's re-check inside the guarded section; zero hits because
	// the follower received the leader's result directly, not via the cache.
	cs := cache.Stats()
	if cs.Misses != 3 || cs.Hits != 0 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}

	// The shared execution's result is byte-identical for both jobs.
	b1, _ := json.Marshal(r1.Results)
	b2, _ := json.Marshal(r2.Results)
	if string(b1) != string(b2) {
		t.Fatalf("coalesced results differ:\n%s\n%s", b1, b2)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"muzzled_flight_executions_total 1",
		"muzzled_flight_coalesced_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDurableCancelAcrossRestart: a canceled job stays canceled after a
// restart (the journal records the client's decision), while a completed
// job comes back queryable with its results.
func TestDurableCancelAcrossRestart(t *testing.T) {
	cancelGate := newGate("cancelgate")
	dir := t.TempDir()
	j1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := service.New(service.Config{Workers: 1, Journal: j1})

	// Job A occupies the only worker (frozen in its factory); job B queues
	// behind it and is canceled while pending.
	base := cancelGate.count.Load()
	a, err := mgr1.Submit(service.Request{Name: "a", QASM: testQASM, Compilers: []string{cancelGate.name}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job a to start compiling", func() bool { return cancelGate.count.Load() == base+1 })
	b, err := mgr1.Submit(service.Request{Name: "b", QASM: testQASM, Compilers: []string{cancelGate.name}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr1.Cancel(b.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	cancelGate.allow(0, 1)
	done := waitState(t, mgr1, a.ID, service.StateDone)
	if len(done.Results) != 1 {
		t.Fatalf("job a results = %d, want 1", len(done.Results))
	}
	mgr1.Close()

	// Restart from the WAL (j1 deliberately not closed: no compaction).
	j2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := service.New(service.Config{Workers: 1, Journal: j2})
	t.Cleanup(func() {
		mgr2.Close()
		j2.Close()
	})
	va, err := mgr2.Get(a.ID)
	if err != nil {
		t.Fatalf("done job lost across restart: %v", err)
	}
	if va.State != service.StateDone || len(va.Results) != 1 {
		t.Fatalf("recovered job a = %s with %d results, want done with 1", va.State, len(va.Results))
	}
	vb, err := mgr2.Get(b.ID)
	if err != nil {
		t.Fatalf("canceled job lost across restart: %v", err)
	}
	if vb.State != service.StateCanceled {
		t.Fatalf("canceled job resurrected as %s", vb.State)
	}
	met := mgr2.MetricsSnapshot()
	if met.JobsByState[service.StatePending] != 0 || met.JobsByState[service.StateRunning] != 0 {
		t.Fatalf("restart revived work: %+v", met.JobsByState)
	}
	if got := cancelGate.count.Load() - base; got != 1 {
		t.Fatalf("compiles = %d, want 1 (neither job may re-run)", got)
	}
}

// TestRecoverJournaledCell starts a manager on a journal whose only job is
// a pending /v1/cells submission, written as a literal record in the
// journal's format: the cell job must come back and run to done with its
// report, without a waiting HTTP client.
func TestRecoverJournaledCell(t *testing.T) {
	dir := t.TempDir()
	j1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const payload = `{"created":"2026-01-02T03:04:05Z","cell":{"grid":{"topologies":[{"family":"line","traps":4}],` +
		`"capacities":[6],"comm_capacities":[2],"compilers":["baseline","optimized"],` +
		`"circuits":[{"kind":"qft","qubits":6},{"kind":"random","qubits":8,"gates_2q":20,"seed":3}]},` +
		`"index":1,"timeout_ms":60000,"verify":true}}`
	err = j1.Append(store.Record{Kind: "submit", JobID: "cell-1", Source: service.SourceCell,
		State: string(service.StatePending), Payload: json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(service.Config{Workers: 1, Journal: j2})
	t.Cleanup(func() {
		mgr.Close()
		j2.Close()
	})
	if got := mgr.MetricsSnapshot().JobsRecovered; got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	v := waitState(t, mgr, "cell-1", service.StateDone)
	if v.Source != service.SourceCell || v.CircuitsTotal != 1 || v.CircuitsDone != 1 {
		t.Fatalf("recovered cell job: source %q, %d of %d done", v.Source, v.CircuitsDone, v.CircuitsTotal)
	}
	if len(v.Compilers) != 2 || v.Compilers[0] != "baseline" || v.Compilers[1] != "optimized" {
		t.Fatalf("recovered cell job compilers = %v", v.Compilers)
	}
	cr := v.Cell
	if cr == nil || cr.Index != 1 || cr.Error != "" || cr.Qubits != 8 || len(cr.Outcomes) != 2 {
		t.Fatalf("recovered cell report = %+v, want cell 1 (random, 8 qubits) under both compilers", cr)
	}
}

// TestDrainLeavesQueuedPending: a graceful drain refuses new submissions,
// lets the running job finish, leaves the queued job untouched — and the
// next process recovers and completes it.
func TestDrainLeavesQueuedPending(t *testing.T) {
	drainGate := newGate("draingate")
	dir := t.TempDir()
	j1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := service.New(service.Config{Workers: 1, Journal: j1})
	srv := httptest.NewServer(mgr1.Handler())
	defer srv.Close()

	base := drainGate.count.Load()
	a, err := mgr1.Submit(service.Request{Name: "a", QASM: testQASM, Compilers: []string{drainGate.name}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job a to start compiling", func() bool { return drainGate.count.Load() == base+1 })
	b, err := mgr1.Submit(service.Request{Name: "b", QASM: testQASM})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr1.Drain(ctx)
		close(drained)
	}()
	waitFor(t, "drain to stop admission", mgr1.Draining)

	// New work is refused while draining, and healthz says so.
	if _, err := mgr1.Submit(service.Request{Name: "c", QASM: testQASM}); err != service.ErrClosed {
		t.Fatalf("submit while draining = %v, want ErrClosed", err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", health.Status)
	}

	drainGate.allow(0, 1) // let the running job finish inside the deadline
	<-drained
	if v, _ := mgr1.Get(a.ID); v.State != service.StateDone {
		t.Fatalf("running job drained as %s, want done", v.State)
	}
	if v, _ := mgr1.Get(b.ID); v.State != service.StatePending {
		t.Fatalf("queued job drained as %s, want pending", v.State)
	}

	// The next process owes job b and completes it.
	j2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := service.New(service.Config{Workers: 1, Journal: j2})
	t.Cleanup(func() {
		mgr2.Close()
		j2.Close()
	})
	vb := waitState(t, mgr2, b.ID, service.StateDone)
	if len(vb.Results) != 1 {
		t.Fatalf("recovered job b results = %d, want 1", len(vb.Results))
	}
	if va, _ := mgr2.Get(a.ID); va.State != service.StateDone {
		t.Fatalf("finished job recovered as %s", va.State)
	}
	if got := drainGate.count.Load() - base; got != 1 {
		t.Fatalf("gated compiles = %d, want 1 (job a must not re-run)", got)
	}
}

// TestAdmissionControl: past the queue-depth bound, submissions are
// rejected with 429 + Retry-After, and the rejection is counted.
func TestAdmissionControl(t *testing.T) {
	admitGate := newGate("admitgate")
	mgr, srv := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(func() { admitGate.allow(0, 8) })
	_ = mgr

	base := admitGate.count.Load()
	a := submit(t, srv, service.Request{Name: "a", QASM: testQASM, Compilers: []string{admitGate.name}})
	waitFor(t, "job a to occupy the worker", func() bool { return admitGate.count.Load() == base+1 })
	b := submit(t, srv, service.Request{Name: "b", QASM: testQASM, Compilers: []string{admitGate.name}})

	// Worker busy, queue full: the third submission is shed.
	body, _ := json.Marshal(service.Request{Name: "c", QASM: testQASM})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 || retry > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	var apiErr struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Code != "queue_full" {
		t.Fatalf("error body code = %q (%v), want queue_full", apiErr.Code, err)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"muzzled_admission_rejected_total 1",
		"muzzled_queue_depth 1",
		"muzzled_queue_capacity 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	admitGate.allow(0, 2)
	waitState(t, mgr, a.ID, service.StateDone)
	waitState(t, mgr, b.ID, service.StateDone)
}
