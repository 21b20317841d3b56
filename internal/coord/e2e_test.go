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
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

// e2eGrid is the real 6-cell grid the distributed and single-node runs
// must agree on byte for byte.
func e2eGrid() sweep.Grid {
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

// newRealWorker boots a genuine muzzled stack — manager, cache over the
// shared blob dir, flight group — behind an httptest server, with an
// optional middleware wrapping the API handler.
func newRealWorker(t *testing.T, id, sharedCacheDir string, wrap func(http.Handler) http.Handler) (*httptest.Server, *muzzle.Cache) {
	t.Helper()
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 256, Dir: sharedCacheDir})
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

// TestDistributedSweepMatchesSingleNodeAndSurvivesWorkerDeath is the
// acceptance test of the distributed story: three real workers over one
// shared cache dir, one of them killed mid-sweep after finishing a cell
// whose reply is lost, and the resulting artifacts must be byte-identical
// to a single-node run of the same grid — with the dead worker's already-
// compiled work recovered through the shared blob store, not recompiled
// from scratch.
func TestDistributedSweepMatchesSingleNodeAndSurvivesWorkerDeath(t *testing.T) {
	sharedCache := t.TempDir()

	// Victim middleware: request 1 passes; request 2 executes the cell for
	// real (warming the shared cache) but the reply is torn away, as if the
	// process died between finishing the work and answering; any later
	// request — /v1/cells or /healthz — finds the worker dead.
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
	// The survivors answer slightly slower than the victim so the victim
	// reliably comes back for a second cell before the queue drains.
	slowWrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" {
				time.Sleep(25 * time.Millisecond)
			}
			inner.ServeHTTP(w, r)
		})
	}

	srvA, cacheA := newRealWorker(t, "w-a", sharedCache, slowWrap)
	srvV, cacheV := newRealWorker(t, "w-victim", sharedCache, victimWrap)
	srvC, cacheC := newRealWorker(t, "w-c", sharedCache, slowWrap)

	c, err := coord.New(coord.Config{
		Workers:           []string{srvA.URL, srvV.URL, srvC.URL},
		PerWorkerInFlight: 1,
		CellTimeout:       time.Minute,
		ProbeInterval:     50 * time.Millisecond,
		NoWorkerTimeout:   10 * time.Second,
		MaxAttempts:       3,
		Backoff:           coord.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	distDir := t.TempDir()
	rep, err := c.RunDir(t.Context(), e2eGrid(), distDir)
	if err != nil {
		t.Fatal(err)
	}

	// Zero lost cells: every cell completed with a full compiler set.
	if n := rep.Failures(); n != 0 {
		t.Fatalf("%d cells failed", n)
	}
	for _, cr := range rep.Cells {
		if len(cr.Outcomes) != len(rep.Grid.Compilers) {
			t.Fatalf("cell %s has %d outcomes, want %d", cr.ID, len(cr.Outcomes), len(rep.Grid.Compilers))
		}
	}
	met := c.MetricsSnapshot()
	if met.Reassigned < 1 {
		t.Fatalf("reassigned = %d, want >= 1 (the victim's lost cell)", met.Reassigned)
	}
	if met.Failed != 0 {
		t.Fatalf("failed = %d, want 0", met.Failed)
	}
	if cellCalls.Load() < 2 {
		t.Fatalf("victim saw %d cell dispatches, want >= 2", cellCalls.Load())
	}
	for _, wm := range met.Workers {
		if wm.ID == "w-victim" && wm.Healthy {
			t.Fatal("victim still marked healthy after its death")
		}
	}

	// The victim's killed cell was fully compiled before the reply was
	// lost, so its re-run on a survivor resolves through the shared blob
	// store — visible as disk hits on the survivors' caches — rather than
	// being recompiled from scratch or lost.
	var hits, diskHits, misses uint64
	for _, cache := range []*muzzle.Cache{cacheA, cacheV, cacheC} {
		s := cache.Stats()
		hits += s.Hits
		diskHits += s.DiskHits
		misses += s.Misses
	}
	if diskHits < 1 {
		t.Errorf("shared cache disk hits = %d, want >= 1 (the victim's finished work must be reused)", diskHits)
	}
	t.Logf("fleet cache: %d hits, %d disk hits, %d misses; victim dispatches %d; reassigned %d",
		hits, diskHits, misses, cellCalls.Load(), met.Reassigned)

	// Byte-identical artifacts: a single-node run of the same grid, fresh
	// caches, same output layout.
	localDir := t.TempDir()
	localRep, err := inProcessCoord(t, coord.Config{Flight: muzzle.NewFlight()}).RunDir(t.Context(), e2eGrid(), localDir)
	if err != nil {
		t.Fatal(err)
	}
	if localRep.Failures() != 0 {
		t.Fatalf("single-node run had %d failures", localRep.Failures())
	}
	for _, name := range []string{"report.json", "report.csv"} {
		dist, err := os.ReadFile(filepath.Join(distDir, name))
		if err != nil {
			t.Fatal(err)
		}
		local, err := os.ReadFile(filepath.Join(localDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(dist) != string(local) {
			t.Errorf("%s differs between distributed and single-node runs", name)
		}
	}

	// And the distributed dir itself is resumable by the single-node
	// engine: re-running locally over it executes nothing and reproduces
	// the same report.
	exp2, err := sweep.Expand(e2eGrid())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sweep.OpenDir(distDir, exp2)
	if err != nil {
		t.Fatal(err)
	}
	if d.DoneCount() != len(exp2.Cells) {
		t.Fatalf("distributed dir records %d done cells, want %d", d.DoneCount(), len(exp2.Cells))
	}
}
