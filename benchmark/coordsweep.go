package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/service"
	"muzzle/internal/sweep"
)

// Headers that carry a dispatch span from the coordinator's client to the
// worker's handler, so a worker's cell span joins the dispatch that caused
// it.
const (
	spanHeader = "X-Muzzlebench-Span"
	reqHeader  = "X-Muzzlebench-Req"
)

// coordSweep is the coord-sweep workload: coord.Coordinator.RunDir over
// two in-process muzzled workers (one job worker each, one cell in flight
// per worker) that share one disk cache directory. Every sweep starts
// with a fresh cluster and an empty cache directory, so every cell misses
// and writes a disk entry, and the coordinator persists every cell into
// its run directory: the write-heavy use of the cache layer plus
// coordinator dispatch, /v1/cells and the atomic run-dir persist. The
// grid is 24 machines x 16 circuits = 384 cells. Nine of the circuits are
// the reference (the two QFTs and seven random circuits with a fixed
// seed), the same for every seed, and the quality metrics are computed
// over their cells; the other seven are seeded. A sweep takes 3-5 s
// on a 2-CPU host; sweeps repeat while at least half a sweep's mean time
// remains.
type coordSweep struct {
	cfg  config
	grid sweep.Grid
	e    *sweep.Expanded
	ref  map[string]bool // labels of the reference circuits
	root string          // made by warmup
	runs int

	mu       sync.Mutex
	dispatch []float64 // guarded by mu; ms per POST /v1/cells, client side
	cellMS   []float64 // guarded by mu; ms per /v1/cells, worker side

	first    *sweep.Report
	firstSum string
	checkErr error
}

func newCoordSweep(cfg config) workload { return &coordSweep{cfg: cfg} }

func (w *coordSweep) setup(context.Context) error {
	// A random spec's circuits are seeded Seed..Seed+Count-1; the seeded
	// spec's seeds start past the reference ones, so no label repeats.
	seeded := referenceSeed + 1<<20 + rand.New(rand.NewSource(w.cfg.seed)).Int63n(1<<40)
	ref := []sweep.CircuitSpec{
		{Kind: sweep.CircuitQFT, Qubits: 24}, {Kind: sweep.CircuitQFT, Qubits: 48},
		{Kind: sweep.CircuitRandom, Qubits: 48, Gates2Q: 800, Seed: referenceSeed, Count: 7},
	}
	w.grid = sweep.Grid{
		Name: "coord-sweep",
		Topologies: []sweep.TopologySpec{
			{Family: sweep.FamilyLine, Traps: 6}, {Family: sweep.FamilyRing, Traps: 6},
			{Family: sweep.FamilyGrid, Rows: 2, Cols: 3}, {Family: sweep.FamilyLine, Traps: 8},
		},
		Capacities:     []int{14, 17, 20},
		CommCapacities: []int{1, 2},
		Circuits:       append(ref, sweep.CircuitSpec{Kind: sweep.CircuitRandom, Qubits: 48, Gates2Q: 800, Seed: seeded, Count: 7}),
	}
	if w.cfg.small {
		w.grid.Topologies = w.grid.Topologies[:2]
		w.grid.Capacities, w.grid.CommCapacities = []int{17}, []int{2}
		ref = []sweep.CircuitSpec{{Kind: sweep.CircuitQFT, Qubits: 16}, {Kind: sweep.CircuitRandom, Qubits: 18, Gates2Q: 40, Seed: referenceSeed}}
		w.grid.Circuits = append(ref, sweep.CircuitSpec{Kind: sweep.CircuitRandom, Qubits: 18, Gates2Q: 40, Seed: seeded, Count: 2})
	}
	// The expansion is what the output check recomputes cells from;
	// RunDir expands the grid again inside the timed sweep.
	var err error
	if w.e, err = sweep.Expand(w.grid); err != nil {
		return err
	}
	// One machine point is enough to learn the reference circuits' labels.
	refGrid := w.grid
	refGrid.Topologies, refGrid.Capacities, refGrid.CommCapacities = w.grid.Topologies[:1], w.grid.Capacities[:1], w.grid.CommCapacities[:1]
	refGrid.Circuits = ref
	refCells, err := sweep.Expand(refGrid)
	if err != nil {
		return err
	}
	w.ref = map[string]bool{}
	for _, c := range refCells.Cells {
		w.ref[c.Circuit] = true
	}
	return nil
}

// cluster is one coordinator with its two workers and their shared cache
// directory.
type cluster struct {
	cacheDir string
	mgrs     []*service.Manager
	caches   []*muzzle.Cache
	srvs     []*httptest.Server
	client   *http.Client
	coord    *coord.Coordinator
}

func (w *coordSweep) startCluster(tr *tracer) (*cluster, error) {
	w.runs++
	cl := &cluster{cacheDir: filepath.Join(w.root, fmt.Sprintf("cache-%d", w.runs))}
	var urls []string
	for i := 0; i < 2; i++ {
		// The memory tier is kept small: every cell misses anyway, and
		// in-memory entries hold full operation traces.
		cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 4, Dir: cl.cacheDir})
		if err != nil {
			return nil, err
		}
		m := service.New(service.Config{Workers: 1, Cache: cache, Flight: muzzle.NewFlight()})
		srv := httptest.NewServer(w.timeCells(m.Handler(), tr))
		cl.mgrs, cl.caches, cl.srvs = append(cl.mgrs, m), append(cl.caches, cache), append(cl.srvs, srv)
		urls = append(urls, srv.URL)
	}
	cl.client = &http.Client{Transport: &timedTransport{
		base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		w:    w, tr: tr,
	}}
	var err error
	cl.coord, err = coord.New(coord.Config{Workers: urls, Client: cl.client, PerWorkerInFlight: 1})
	return cl, err
}

func (cl *cluster) close() {
	for _, srv := range cl.srvs {
		srv.Close()
	}
	for _, m := range cl.mgrs {
		m.Close()
	}
	cl.client.CloseIdleConnections()
}

// timedTransport times every dispatch the coordinator sends and, when
// tracing, records it as a span whose id travels to the worker.
type timedTransport struct {
	base   http.RoundTripper
	w      *coordSweep
	tr     *tracer
	parent int64 // the sweep's span; set before each RunDir
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path != "/v1/cells" {
		return t.base.RoundTrip(r)
	}
	id := t.tr.newID()
	req := "d" + strconv.FormatInt(id, 10)
	if t.tr != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		r.Header.Set(reqHeader, req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	t1 := time.Now()
	t.tr.record(id, t.parent, "coord.dispatch", req, t0, t1)
	t.w.mu.Lock()
	t.w.dispatch = append(t.w.dispatch, ms(t1.Sub(t0)))
	t.w.mu.Unlock()
	return resp, err
}

// timeCells wraps a worker's handler to time each /v1/cells request on
// the worker side.
func (w *coordSweep) timeCells(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cells" {
			next.ServeHTTP(rw, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(rw, r)
		t1 := time.Now()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		tr.add(parent, "worker.cell", r.Header.Get(reqHeader), t0, t1)
		w.mu.Lock()
		w.cellMS = append(w.cellMS, ms(t1.Sub(t0)))
		w.mu.Unlock()
	})
}

// warmup makes the directory the clusters work in, then runs one small
// sweep (the first topology and machine point) on a throwaway cluster.
// The directory is made here rather than in setup: directory operations
// took 0.05-0.8 ms as the host's disk load changed, up to twice what the
// rest of the set-up takes, and made setup_s follow the disk.
func (w *coordSweep) warmup(ctx context.Context) error {
	var err error
	if w.root, err = os.MkdirTemp("", "muzzlebench-coord-"); err != nil {
		return err
	}
	g := w.grid
	g.Topologies, g.Capacities, g.CommCapacities = g.Topologies[:1], g.Capacities[:1], g.CommCapacities[:1]
	cl, err := w.startCluster(nil)
	if err != nil {
		return err
	}
	defer cl.close()
	rep, err := cl.coord.RunDir(ctx, g, filepath.Join(w.root, "warm-run"))
	if err != nil {
		return err
	}
	if n := rep.Failures(); n > 0 {
		return fmt.Errorf("%d warm-up cells failed", n)
	}
	w.mu.Lock()
	w.dispatch, w.cellMS = nil, nil
	w.mu.Unlock()
	return nil
}

func (w *coordSweep) measure(ctx context.Context, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	var busy time.Duration
	var expand []float64
	var reassigned, retried, persisted, hits, lookups, diskEntries, diskErrs float64
	start := time.Now()
	// Sweep again while at least half a sweep's mean time remains.
	for k := 0; k == 0 || time.Since(start)+time.Since(start)/time.Duration(2*k) < d; k++ {
		cl, err := w.startCluster(tr)
		if err != nil {
			return ph, err
		}
		runDir := filepath.Join(w.root, fmt.Sprintf("run-%d", w.runs))
		if tr != nil {
			t0 := time.Now()
			if _, err := sweep.Expand(w.grid); err != nil {
				return ph, err
			}
			t1 := time.Now()
			tr.add(0, "sweep.expand", "sweep"+strconv.Itoa(w.runs), t0, t1)
			expand = append(expand, ms(t1.Sub(t0)))
		}
		sweepID := tr.newID()
		cl.client.Transport.(*timedTransport).parent = sweepID
		t0 := time.Now()
		rep, err := cl.coord.RunDir(ctx, w.grid, runDir)
		t1 := time.Now()
		tr.record(sweepID, 0, "coord.rundir", "sweep"+strconv.Itoa(w.runs), t0, t1)
		busy += t1.Sub(t0)
		cl.close()
		if err != nil {
			return ph, fmt.Errorf("sweep %d: %w", k, err)
		}
		ph.ops += len(rep.Cells)
		ph.failed += rep.Failures()

		met := cl.coord.MetricsSnapshot()
		reassigned += float64(met.Reassigned)
		retried += float64(met.Retried)
		for _, c := range cl.caches {
			s := c.Stats()
			hits += float64(s.Hits)
			lookups += float64(s.Hits + s.Misses)
			diskEntries += float64(s.DiskEntries)
			diskErrs += float64(s.DiskErrors)
		}
		if dir, err := sweep.OpenDir(runDir, w.e); err == nil {
			persisted += float64(dir.DoneCount())
		}
		var buf bytes.Buffer
		if err := sweep.WriteJSON(&buf, rep); err != nil {
			return ph, err
		}
		if sum := checksum(buf.String()); w.first == nil {
			w.first, w.firstSum = rep, sum
		} else if sum != w.firstSum {
			w.checkErr = fmt.Errorf("sweep %d produced a report that differs from the first sweep's", k)
		}
		if err := os.RemoveAll(cl.cacheDir); err != nil {
			return ph, err
		}
		if err := os.RemoveAll(runDir); err != nil {
			return ph, err
		}
	}
	ph.elapsed = busy

	w.mu.Lock()
	dispatch, cellMS := w.dispatch, w.cellMS
	w.dispatch, w.cellMS = nil, nil
	w.mu.Unlock()
	ph.p50, ph.p90 = percentile(dispatch, 0.5), percentile(dispatch, 0.9)
	sweeps := float64(max(len(expand), 1))
	ph.layer = map[string]float64{
		"coord.reassigned":      reassigned,
		"coord.retried":         retried,
		"sweep.cells_persisted": persisted,
		"cache.lookups":         lookups,
		"cache.disk_entries":    diskEntries,
		"cache.disk_errors":     diskErrs,
	}
	if lookups > 0 {
		ph.layer["cache.hit_ratio"] = hits / lookups
	}
	if tr != nil {
		ph.layer["sweep.expand_ms"] = sum(expand) / sweeps
		ph.layer["coord.dispatch_ms_p50"] = ph.p50
		ph.layer["coord.dispatch_ms_p99"] = percentile(dispatch, 0.99)
		ph.layer["coord.worker_cell_ms_p50"] = percentile(cellMS, 0.5)
		ph.layer["coord.busy_frac"] = sum(dispatch) / (ms(busy) * 2)
	}
	return ph, nil
}

func (w *coordSweep) quality() quality {
	var q quality
	var gains []float64
	for _, c := range w.first.Cells {
		if !w.ref[c.Circuit] {
			continue
		}
		var base, opt *sweep.OutcomeSummary
		for i := range c.Outcomes {
			switch c.Outcomes[i].Compiler {
			case muzzle.CompilerBaseline:
				base = &c.Outcomes[i]
			case muzzle.CompilerOptimized:
				opt = &c.Outcomes[i]
			}
		}
		if base == nil || opt == nil {
			continue
		}
		q.optShuttles += opt.Shuttles
		gains = append(gains, log10Gain(opt.LogFidelity, base.LogFidelity))
	}
	q.fig8 = mean(gains)
	q.checksum = w.firstSum
	return q
}

// check recomputes a seeded sample of cells in process with
// sweep.Expanded.RunCell (no cache, no HTTP) and requires the outcomes
// the coordinator persisted.
func (w *coordSweep) check(ctx context.Context) error {
	if w.checkErr != nil {
		return w.checkErr
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	for _, idx := range rng.Perm(len(w.e.Cells))[:min(32, len(w.e.Cells))] {
		got, err := w.e.RunCell(ctx, idx, sweep.Options{})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, w.first.Cells[idx]) {
			return fmt.Errorf("cell %s: coordinator result differs from an in-process RunCell", w.e.Cells[idx].ID)
		}
	}
	return nil
}

func (w *coordSweep) close() {
	if w.root != "" {
		os.RemoveAll(w.root) //nolint:errcheck // best-effort cleanup of a temporary directory
	}
}
