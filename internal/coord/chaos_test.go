package coord_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/faults"
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

// violate fails the test with the marker the CI chaos job gates on:
// assertions carrying it are correctness invariants (lost cells, divergent
// artifacts), not schedule expectations that a slow machine could miss.
func violate(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf("INVARIANT VIOLATION: "+format, args...)
}

// newChaosWorker is newRealWorker with a caller-controlled cache config,
// so each worker's disk tier can run under its own fault scope and trip
// thresholds.
func newChaosWorker(t *testing.T, id string, cc muzzle.CacheConfig, wrap func(http.Handler) http.Handler) (*httptest.Server, *muzzle.Cache) {
	t.Helper()
	cache, err := muzzle.NewCache(cc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(service.Config{
		Workers:  2,
		Cache:    cache,
		Flight:   muzzle.NewFlight(),
		WorkerID: id,
	})
	h := http.Handler(mgr.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, cache
}

// TestChaosSweepSurvivesSeededFaultSchedule is the chaos acceptance test:
// a full coordinator + three-worker + shared-cache stack runs the e2e grid
// under a seeded fault schedule — injected disk I/O errors on the
// survivors' cache tiers (low trip threshold, fast re-probe), injected
// transport latency / connection resets / 5xx on the coordinator's client,
// and one worker killed mid-sweep after finishing work whose reply is
// lost. The invariants: zero lost cells, report.json and report.csv
// byte-identical to a fault-free single-node run of the same grid, and the
// run dir fully resumable. Schedule expectations (faults actually fired,
// a disk tier actually tripped) are asserted without the violation marker:
// they pin the test's power, not the system's correctness.
func TestChaosSweepSurvivesSeededFaultSchedule(t *testing.T) {
	inj := faults.New(20220427,
		// Transport: the first three round trips (the initial probes) see
		// added latency, the next two die with connection resets, and two
		// more are served but answered with a synthesized 500 — work done,
		// answer lost. Budgets make the schedule finite; everything after
		// call 6 is clean.
		faults.Rule{Scope: faults.ScopeCoordNet, Op: faults.OpHTTP, Kind: faults.KindLatency, Latency: 5 * time.Millisecond, Count: 3},
		faults.Rule{Scope: faults.ScopeCoordNet, Op: faults.OpHTTP, Kind: faults.KindReset, Count: 2},
		faults.Rule{Scope: faults.ScopeCoordNet, Op: faults.OpHTTP, Kind: faults.KindHTTP500, Count: 2},
		// Disk: each survivor's first four cache-tier I/O ops fail, enough
		// to trip a tier (threshold 2) on its first executed cell; the
		// budget leaves the re-probe path clean so a tripped tier recovers.
		faults.Rule{Scope: faults.ScopeCoordDisk + ".a", Count: 4},
		faults.Rule{Scope: faults.ScopeCoordDisk + ".c", Count: 4},
	)
	restore := faults.Install(inj)
	defer restore()

	sharedCache := t.TempDir()
	diskCfg := func(scope string) muzzle.CacheConfig {
		return muzzle.CacheConfig{
			MaxEntries:        256,
			Dir:               sharedCache,
			DiskTripThreshold: 2,
			DiskRetryInterval: 50 * time.Millisecond,
			FaultScope:        scope,
		}
	}

	// Victim middleware (same shape as the plain e2e): one good cell, one
	// cell whose work completes but whose reply is torn away, then dead.
	var cellCalls atomic.Int64
	var killed atomic.Bool
	victimWrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" && r.Method == http.MethodPost {
				switch cellCalls.Add(1) {
				case 1:
					inner.ServeHTTP(w, r)
				case 2:
					rec := httptest.NewRecorder()
					inner.ServeHTTP(rec, r) // the work happens and is cached
					killed.Store(true)
					panic(http.ErrAbortHandler) // ...but the reply never arrives
				default:
					panic(http.ErrAbortHandler)
				}
				return
			}
			if killed.Load() {
				http.Error(w, "dead", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	slowWrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" {
				time.Sleep(25 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		})
	}

	srvA, cacheA := newChaosWorker(t, "w-a", diskCfg(faults.ScopeCoordDisk+".a"), slowWrap)
	srvV, cacheV := newChaosWorker(t, "w-victim", diskCfg(""), victimWrap)
	srvC, cacheC := newChaosWorker(t, "w-c", diskCfg(faults.ScopeCoordDisk+".c"), slowWrap)

	c, err := coord.New(coord.Config{
		Workers:           []string{srvA.URL, srvV.URL, srvC.URL},
		PerWorkerInFlight: 1,
		CellTimeout:       time.Minute,
		ProbeInterval:     50 * time.Millisecond,
		NoWorkerTimeout:   15 * time.Second,
		MaxAttempts:       6,
		Backoff:           coord.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		BreakerThreshold:  3,
		BreakerCooldown:   200 * time.Millisecond,
		FaultScope:        faults.ScopeCoordNet,
	})
	if err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	rep, err := c.RunDir(t.Context(), e2eGrid(), distDir)
	if err != nil {
		violate(t, "chaos run failed: %v", err)
		return
	}

	// Invariant: zero lost cells, every cell with its full compiler set.
	if n := rep.Failures(); n != 0 {
		for _, cr := range rep.Cells {
			if cr.Error != "" {
				t.Logf("cell %d (%s): %s", cr.Index, cr.ID, cr.Error)
			}
		}
		violate(t, "%d cells lost under the fault schedule", n)
	}
	for _, cr := range rep.Cells {
		if len(cr.Outcomes) != len(rep.Grid.Compilers) {
			violate(t, "cell %s has %d outcomes, want %d", cr.ID, len(cr.Outcomes), len(rep.Grid.Compilers))
		}
	}

	// Invariant: artifacts byte-identical to a fault-free single-node run.
	localDir := t.TempDir()
	localRep, err := inProcessCoord(t, coord.Config{Flight: muzzle.NewFlight()}).RunDir(t.Context(), e2eGrid(), localDir)
	if err != nil || localRep.Failures() != 0 {
		t.Fatalf("fault-free reference run failed: %v (%d failures)", err, localRep.Failures())
	}
	for _, name := range []string{"report.json", "report.csv"} {
		dist, err := os.ReadFile(filepath.Join(distDir, name))
		if err != nil {
			violate(t, "reading distributed %s: %v", name, err)
			continue
		}
		local, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(dist) != string(local) {
			violate(t, "%s differs between the chaos run and the fault-free run", name)
		}
	}

	// Invariant: the chaos dir is complete and resumable.
	exp2, err := sweep.Expand(e2eGrid())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sweep.OpenDir(distDir, exp2)
	if err != nil {
		violate(t, "reopening chaos run dir: %v", err)
	} else if d.DoneCount() != len(exp2.Cells) {
		violate(t, "chaos dir records %d done cells, want %d", d.DoneCount(), len(exp2.Cells))
	}

	// Schedule power (no marker): the faults really fired and really bit.
	if inj.Total() == 0 {
		t.Error("fault schedule fired nothing — the chaos run was a plain run")
	}
	fired := inj.Fired()
	if fired[faults.ScopeCoordNet+"/http"] == 0 {
		t.Error("no transport faults fired")
	}
	trips := cacheA.Stats().DiskTrips + cacheC.Stats().DiskTrips
	if trips == 0 {
		t.Error("no survivor disk tier tripped under the disk fault schedule")
	}
	var diskErrs uint64
	for _, cache := range []*muzzle.Cache{cacheA, cacheV, cacheC} {
		diskErrs += cache.Stats().DiskErrors
	}
	met := c.MetricsSnapshot()
	if met.Reassigned < 1 {
		t.Errorf("reassigned = %d, want >= 1 (resets, 500s, and the victim's death all reassign)", met.Reassigned)
	}
	t.Logf("chaos: %d faults fired (%v), %d disk errors, %d disk trips, %d reassigned, %d breaker opens, victim dispatches %d",
		inj.Total(), fired, diskErrs, trips, met.Reassigned, met.BreakerOpens, cellCalls.Load())
}
