package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muzzle/internal/coord"
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

// unitGrid is a 6-cell grid the fake workers resolve without compiling.
func unitGrid() sweep.Grid {
	return sweep.Grid{
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyLine, Traps: 4},
			{Family: sweep.FamilyRing, Traps: 4},
			{Family: sweep.FamilyGrid, Rows: 2, Cols: 2},
		},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []sweep.CircuitSpec{
			{Kind: sweep.CircuitRandom, Qubits: 10, Gates2Q: 30, Seed: 11},
			{Kind: sweep.CircuitQFT, Qubits: 8},
		},
	}
}

func mustExpand(t *testing.T, g sweep.Grid) *sweep.Expanded {
	t.Helper()
	e, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fakeWorker is an httptest muzzled stand-in: it answers /healthz and
// resolves /v1/cells by fabricating a report with the correct identity (no
// compiler runs). Per-request behavior is injectable via onCell.
type fakeWorker struct {
	t   *testing.T
	srv *httptest.Server

	slots int // /healthz "workers" advertisement

	mu      sync.Mutex
	indexes []int // cell indexes in arrival order

	dead atomic.Bool // healthz answers 500 when set

	// onCell, when non-nil, may hijack a cell request: return true after
	// writing a response to suppress the default fabricated 200.
	onCell func(w http.ResponseWriter, r *http.Request, req coord.CellRequest, arrival int) bool
}

func newFakeWorker(t *testing.T, slots int) *fakeWorker {
	t.Helper()
	f := &fakeWorker{t: t, slots: slots}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if f.dead.Load() {
			http.Error(w, "dead", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"status":  "ok",
			"workers": f.slots,
			"worker":  coord.WorkerInfo{ID: "fake", Version: service.Version},
		})
	})
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		var req coord.CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		arrival := len(f.indexes)
		f.indexes = append(f.indexes, req.Index)
		f.mu.Unlock()
		if f.onCell != nil && f.onCell(w, r, req, arrival) {
			return
		}
		e, err := sweep.Expand(req.Grid)
		if err != nil || req.Index < 0 || req.Index >= len(e.Cells) {
			http.Error(w, "bad cell", http.StatusBadRequest)
			return
		}
		cr := e.Cells[req.Index].Skeleton()
		cr.Outcomes = []sweep.OutcomeSummary{{Compiler: "baseline", Shuttles: req.Index + 1}}
		json.NewEncoder(w).Encode(cr)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) received() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.indexes...)
}

// fastCfg is a test Config with sub-second knobs.
func fastCfg(workers ...*fakeWorker) coord.Config {
	cfg := coord.Config{
		CellTimeout:     5 * time.Second,
		ProbeTimeout:    time.Second,
		ProbeInterval:   20 * time.Millisecond,
		NoWorkerTimeout: 2 * time.Second,
		MaxAttempts:     3,
		Backoff:         coord.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	}
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.srv.URL)
	}
	return cfg
}

func TestRunCompletesAllCells(t *testing.T) {
	wa, wb := newFakeWorker(t, 2), newFakeWorker(t, 2)
	c, err := coord.New(fastCfg(wa, wb))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	e := mustExpand(t, unitGrid())
	if len(rep.Cells) != len(e.Cells) {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), len(e.Cells))
	}
	for i, cr := range rep.Cells {
		if cr.Index != i || cr.ID != e.Cells[i].ID {
			t.Errorf("cell %d: got (%d, %s)", i, cr.Index, cr.ID)
		}
		if cr.Error != "" {
			t.Errorf("cell %d error: %s", i, cr.Error)
		}
	}
	met := c.MetricsSnapshot()
	if met.Completed != int64(len(e.Cells)) || met.Failed != 0 {
		t.Fatalf("metrics completed=%d failed=%d, want %d/0", met.Completed, met.Failed, len(e.Cells))
	}
	if got := len(wa.received()) + len(wb.received()); got != len(e.Cells) {
		t.Fatalf("workers saw %d dispatches, want %d", got, len(e.Cells))
	}
}

// With a single serial worker, cells arrive in expansion-index order: the
// task queue is FIFO and nothing reorders it.
func TestDispatchOrderIsExpansionOrder(t *testing.T) {
	w := newFakeWorker(t, 1)
	cfg := fastCfg(w)
	cfg.PerWorkerInFlight = 1
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(t.Context(), unitGrid()); err != nil {
		t.Fatal(err)
	}
	got := w.received()
	for i, idx := range got {
		if idx != i {
			t.Fatalf("dispatch order %v, want ascending cell indexes", got)
		}
	}
}

// 429 responses are backpressure, not failure: the coordinator waits the
// advertised Retry-After (plus jitter), re-dispatches, spends no retry
// budget, and never evicts the worker.
func TestBackpressureRetriesWithoutEviction(t *testing.T) {
	var rejected atomic.Int64
	w := newFakeWorker(t, 2)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, req coord.CellRequest, arrival int) bool {
		// First sighting of each cell is shed with a hint; retries pass.
		if arrival < 6 {
			rejected.Add(1)
			rw.Header().Set("Retry-After", "0")
			http.Error(rw, `{"code":"queue_full","error":"full"}`, http.StatusTooManyRequests)
			return true
		}
		return false
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 1 // any failure-path retry would fail the run
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed; backpressure must not consume the attempt budget", n)
	}
	met := c.MetricsSnapshot()
	if met.Retried != rejected.Load() {
		t.Fatalf("retried=%d, want %d (one per 429)", met.Retried, rejected.Load())
	}
	if met.Reassigned != 0 || met.Failed != 0 {
		t.Fatalf("reassigned=%d failed=%d, want 0/0", met.Reassigned, met.Failed)
	}
	if wm := met.Workers[0]; !wm.Healthy || wm.Errors != 0 {
		t.Fatalf("worker healthy=%v errors=%d; 429 must not evict", wm.Healthy, wm.Errors)
	}
}

// A worker that fails dispatches is evicted and its cells reassigned; with
// a second healthy worker the sweep completes with zero lost cells.
func TestUnhealthyWorkerEvictionAndReassignment(t *testing.T) {
	good := newFakeWorker(t, 2)
	bad := newFakeWorker(t, 2)
	bad.onCell = func(rw http.ResponseWriter, _ *http.Request, _ coord.CellRequest, _ int) bool {
		bad.dead.Store(true) // stay out of rotation once probed
		http.Error(rw, "boom", http.StatusInternalServerError)
		return true
	}
	c, err := coord.New(fastCfg(good, bad))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed after reassignment, want 0", n)
	}
	met := c.MetricsSnapshot()
	if met.Reassigned < 1 {
		t.Fatalf("reassigned=%d, want >= 1", met.Reassigned)
	}
	for _, wm := range met.Workers {
		if wm.URL == bad.srv.URL && wm.Healthy {
			t.Fatal("failing worker still marked healthy")
		}
	}
}

// Past MaxAttempts the cell is recorded as failed in the report — but
// never persisted, so a resumed run dir retries it.
func TestRetryCapRecordsUnpersistedFailure(t *testing.T) {
	w := newFakeWorker(t, 1)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, req coord.CellRequest, _ int) bool {
		if req.Index == 0 {
			http.Error(rw, "boom", http.StatusInternalServerError)
			return true
		}
		return false
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 2
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rep, err := c.RunDir(t.Context(), unitGrid(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 1 {
		t.Fatalf("failures=%d, want exactly the capped cell", n)
	}
	if cr := rep.Cells[0]; cr.Error == "" || !contains(cr.Error, "after 2 attempts") {
		t.Fatalf("cell 0 error = %q, want a dispatch-failure record", cr.Error)
	}
	met := c.MetricsSnapshot()
	if met.Failed != 1 {
		t.Fatalf("failed=%d, want 1", met.Failed)
	}

	// The failed cell must not be in the resume state.
	e := mustExpand(t, unitGrid())
	d, err := sweep.OpenDir(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Preloaded()[0]; ok {
		t.Fatal("capped cell was persisted; resume would never retry it")
	}
	if d.DoneCount() != len(e.Cells)-1 {
		t.Fatalf("done=%d, want %d", d.DoneCount(), len(e.Cells)-1)
	}
}

// A worker returning the wrong cell (index or ID drift) is a dispatch
// failure, not silent corruption of the run dir.
func TestMismatchedCellIsRejected(t *testing.T) {
	w := newFakeWorker(t, 1)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, req coord.CellRequest, _ int) bool {
		e, _ := sweep.Expand(req.Grid)
		cr := e.Cells[(req.Index+1)%len(e.Cells)].Skeleton() // wrong cell
		json.NewEncoder(rw).Encode(cr)
		return true
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 1
	// Every mismatch is a dispatch failure, so the breaker opens; a short
	// cooldown keeps the run from waiting out the default one per cell.
	cfg.BreakerCooldown = 100 * time.Millisecond
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures() != len(rep.Cells) {
		t.Fatalf("failures=%d, want all: every response was for the wrong cell", rep.Failures())
	}
	for _, cr := range rep.Cells {
		if !contains(cr.Error, "mismatch") {
			t.Fatalf("cell %d error = %q, want a mismatch record", cr.Index, cr.Error)
		}
	}
}

// With no healthy worker at all, Run fails fast with ErrNoWorkers instead
// of timing out cell by cell.
func TestNoHealthyWorkersFailsFast(t *testing.T) {
	w := newFakeWorker(t, 1)
	w.dead.Store(true)
	c, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(t.Context(), unitGrid()); !errors.Is(err, coord.ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// A distributed run dir resumes: the second run re-dispatches nothing.
func TestRunDirResumeDispatchesNothing(t *testing.T) {
	w := newFakeWorker(t, 2)
	c, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.RunDir(t.Context(), unitGrid(), dir); err != nil {
		t.Fatal(err)
	}
	first := len(w.received())

	c2, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c2.RunDir(t.Context(), unitGrid(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures() != 0 {
		t.Fatalf("resumed run failures = %d", rep.Failures())
	}
	if got := len(w.received()); got != first {
		t.Fatalf("resume dispatched %d extra cells, want 0", got-first)
	}
	met := c2.MetricsSnapshot()
	if met.CellsPreloaded != int64(len(rep.Cells)) {
		t.Fatalf("preloaded=%d, want %d", met.CellsPreloaded, len(rep.Cells))
	}
}

// A finished run directory owes no cells, so RunDir rewrites its reports
// without asking any worker, even when every worker is down.
func TestRunDirFinishedDirNeedsNoWorker(t *testing.T) {
	w := newFakeWorker(t, 2)
	c, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.RunDir(t.Context(), unitGrid(), dir); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	first, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(report); err != nil {
		t.Fatal(err)
	}
	dispatched := len(w.received())

	w.dead.Store(true)
	c2, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c2.RunDir(t.Context(), unitGrid(), dir)
	if err != nil {
		t.Fatalf("RunDir over a finished dir with its only worker down: %v", err)
	}
	if rep.Failures() != 0 {
		t.Fatalf("report carries %d failures", rep.Failures())
	}
	again, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("rewritten report.json differs from the original")
	}
	if got := len(w.received()); got != dispatched {
		t.Fatalf("dispatched %d cells, want 0", got-dispatched)
	}
	if wm := c2.MetricsSnapshot().Workers[0]; wm.Errors != 0 {
		t.Fatalf("worker errors = %d, want 0: nothing was owed, so nothing needed a probe", wm.Errors)
	}
}

// A run whose context ends before any worker answers returns the
// context's error with the partial report, the preloaded cells in it and
// the owed ones marked with that error, and blames no worker.
func TestRunDirCanceledBeforeProbe(t *testing.T) {
	w := newFakeWorker(t, 2)
	c, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.RunDir(t.Context(), unitGrid(), dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "cells", "cell-000002.json")); err != nil {
		t.Fatal(err)
	}
	dispatched := len(w.received())

	c2, err := coord.New(fastCfg(w))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	rep, err := c2.RunDir(ctx, unitGrid(), dir)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("canceled run returned no report")
	}
	for i, cr := range rep.Cells {
		switch {
		case i == 2 && cr.Error != context.Canceled.Error():
			t.Errorf("owed cell 2 error = %q, want %q", cr.Error, context.Canceled)
		case i != 2 && (cr.Error != "" || len(cr.Outcomes) == 0):
			t.Errorf("preloaded cell %d = %+v, want its persisted report", i, cr)
		}
	}
	if got := len(w.received()); got != dispatched {
		t.Fatalf("dispatched %d cells under a canceled context", got-dispatched)
	}
	if wm := c2.MetricsSnapshot().Workers[0]; wm.Errors != 0 {
		t.Fatalf("worker errors = %d, want 0: the run ended, the worker did not fail", wm.Errors)
	}
}

func TestNewRejectsBadWorkerLists(t *testing.T) {
	for _, workers := range [][]string{
		{"not-a-url"},
		{"ftp://host"},
		{"http://a:1", "http://a:1"},
	} {
		if _, err := coord.New(coord.Config{Workers: workers}); err == nil {
			t.Errorf("New(%v) accepted, want error", workers)
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
