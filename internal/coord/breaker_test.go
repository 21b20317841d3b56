package coord_test

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"muzzle/internal/coord"
)

// A worker whose /healthz stays green while its dispatches fail exercises
// exactly the gap the circuit breaker covers: probes keep reviving the
// health bit, but after BreakerThreshold consecutive dispatch faults the
// circuit opens and the worker's slots idle through the cooldown instead
// of burning cell attempt budgets. Each half-open trial that fails
// re-opens the circuit; the first trial that succeeds closes it and the
// worker rejoins the fleet.
func TestBreakerOpensThenRecoversViaHalfOpenTrial(t *testing.T) {
	var fails atomic.Int64
	w := newFakeWorker(t, 2)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, _ coord.CellRequest, _ int) bool {
		// First three dispatches fail; /healthz keeps answering "ok".
		if fails.Add(1) <= 3 {
			http.Error(rw, "flaky route", http.StatusBadGateway)
			return true
		}
		return false
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 10      // failures must reassign, not exhaust cells
	cfg.PerWorkerInFlight = 1 // serial dispatch: the open count is exact
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 100 * time.Millisecond
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed; the breaker must delay the worker, not lose cells", n)
	}
	met := c.MetricsSnapshot()
	// Failures 1+2 open the circuit; failure 3 is the first half-open
	// trial and re-opens it; the next trial succeeds and closes it.
	if met.BreakerOpens != 2 {
		t.Fatalf("breaker opened %d times, want 2 (threshold trip + failed trial)", met.BreakerOpens)
	}
	wm := met.Workers[0]
	if wm.BreakerOpen {
		t.Fatal("circuit still open after a successful trial dispatch")
	}
	if wm.BreakerOpens != 2 {
		t.Fatalf("worker breaker opens = %d, want 2", wm.BreakerOpens)
	}
	// All six cells ultimately completed on this worker, past the faults.
	if wm.Completed != int64(len(mustExpand(t, unitGrid()).Cells)) {
		t.Fatalf("worker completed %d cells, want all", wm.Completed)
	}
}

// An open circuit really does gate dispatches: with the cooldown far
// longer than the worker's fault window, no cell is dispatched between
// the open and the first trial — every arrival is either one of the
// opening faults or a post-cooldown dispatch.
func TestBreakerBlocksDispatchDuringCooldown(t *testing.T) {
	var openedAt atomic.Int64 // unix nanos of the opening fault
	w := newFakeWorker(t, 2)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, _ coord.CellRequest, arrival int) bool {
		if arrival < 2 {
			if arrival == 1 {
				openedAt.Store(time.Now().UnixNano())
			}
			http.Error(rw, "flaky route", http.StatusBadGateway)
			return true
		}
		// Any dispatch after the open must wait out the cooldown.
		if since := time.Since(time.Unix(0, openedAt.Load())); since < 150*time.Millisecond {
			t.Errorf("dispatch %d arrived %s after the circuit opened, inside the cooldown", arrival, since)
		}
		return false
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 10
	cfg.PerWorkerInFlight = 1 // no second dispatch racing the open
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 200 * time.Millisecond
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed, want 0", n)
	}
}

// BreakerThreshold < 0 disables the breaker entirely: a worker can fail
// any number of consecutive dispatches and the only gate left is the
// probe-driven health bit.
func TestBreakerDisabled(t *testing.T) {
	var fails atomic.Int64
	w := newFakeWorker(t, 2)
	w.onCell = func(rw http.ResponseWriter, _ *http.Request, _ coord.CellRequest, _ int) bool {
		if fails.Add(1) <= 5 {
			http.Error(rw, "flaky route", http.StatusBadGateway)
			return true
		}
		return false
	}
	cfg := fastCfg(w)
	cfg.MaxAttempts = 10
	cfg.BreakerThreshold = -1
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(t.Context(), unitGrid())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed, want 0", n)
	}
	if met := c.MetricsSnapshot(); met.BreakerOpens != 0 {
		t.Fatalf("breaker opened %d times while disabled", met.BreakerOpens)
	}
}
