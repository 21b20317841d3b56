// Command muzzlesweep runs a declarative scenario sweep — topology family
// x trap capacity x compiler set x circuit family — through the muzzle
// compilation pipeline, in this process or across muzzled workers, and
// writes deterministic JSON/CSV artifacts plus a resumable manifest:
// re-running an interrupted sweep in the same output directory executes
// only the unfinished cells, and re-running a finished sweep reproduces
// report.json byte for byte.
//
// With -workers, the cells go to muzzled daemons over HTTP (POST
// /v1/cells) with health probing, backpressure-aware dispatch, and
// failure reassignment. Point every worker's -cache-dir at one shared
// directory: the content-addressed compile cache then acts as the fleet's
// shared blob store, so overlapping cells — including cells re-dispatched
// after a worker died mid-flight — cost one compile total. The artifacts
// are the same either way, and a directory started in process can be
// finished on workers and vice versa.
//
// Usage:
//
//	muzzlesweep -grid grid.json [flags]
//	muzzlesweep -topo line:6,ring:6,grid:2x3 -circuits qft:16 [flags]
//	muzzlesweep -workers http://a:8077,http://b:8077 [flags]
//
// Flags:
//
//	-grid FILE        grid spec as JSON (see README); overrides the axis flags
//	-topo LIST        topology axis: line:N | ring:N | grid:RxC (comma separated)
//	-capacities LIST  trap capacity axis (default 17)
//	-comm LIST        communication capacity axis (default 2)
//	-compilers LIST   registry compiler set (default baseline,optimized)
//	-circuits LIST    circuit axis: paper | qft:N | random:Q:G:SEED[:COUNT]
//	-out DIR          artifact directory (default sweep-out)
//	-workers LIST     muzzled base URLs, comma separated (empty = run the
//	                  cells in this process)
//	-parallelism N    concurrent cells per worker (0 = one per CPU in
//	                  process, or the pool size each daemon's /healthz
//	                  advertises)
//	-cache N          in-memory compile-cache entries (default 4096; 0 disables)
//	-cache-dir DIR    persist cache entries as JSON under DIR (shared across runs)
//	-cache-disk N     max persisted files under -cache-dir (0 = unbounded);
//	                  the three cache flags serve in-process cells and are
//	                  rejected with -workers
//	-cell-timeout D   per-dispatch-attempt deadline for one cell on a worker
//	                  (default 10m)
//	-max-attempts N   failed-dispatch budget per cell before the cell is
//	                  recorded as failed (default 3); 429 retries are free
//	-probe-interval D health re-probe cadence for unhealthy workers (default 2s)
//	-no-worker-timeout D  abort after the whole fleet has been unhealthy this
//	                  long (default 1m)
//	-metrics ADDR     serve coordinator /metrics + /healthz on ADDR (empty
//	                  disables)
//	-timeout D        abort the sweep after this duration (0 = none)
//	-q                suppress per-cell progress lines
//	-verify           replay every schedule through the independent
//	                  machine-model verifier; violations fail the cell
//
// Artifacts under -out: report.json (the aggregated deterministic report),
// report.csv (one row per cell x compiler), manifest.json and cells/ (the
// resume state).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"muzzle"
	"muzzle/internal/coord"
	"muzzle/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "muzzlesweep:", err)
		os.Exit(1)
	}
}

func run() error {
	gridFile := flag.String("grid", "", "grid spec JSON file (overrides the axis flags)")
	topoList := flag.String("topo", "line:6", "topology axis: line:N | ring:N | grid:RxC, comma separated")
	capList := flag.String("capacities", "17", "trap capacity axis, comma separated")
	commList := flag.String("comm", "2", "communication capacity axis, comma separated")
	compilers := flag.String("compilers", "", "compiler set (default baseline,optimized)")
	circuits := flag.String("circuits", "qft:16", "circuit axis: paper | qft:N | random:Q:G:SEED[:COUNT], comma separated")
	out := flag.String("out", "sweep-out", "artifact directory (resumable)")
	workers := flag.String("workers", "", "muzzled base URLs, comma separated (empty = run the cells in this process)")
	parallelism := flag.Int("parallelism", 0, "concurrent cells per worker (0 = one per CPU in process, or the pool size each daemon's /healthz advertises)")
	cacheEntries := flag.Int("cache", 4096, "in-memory compile-cache entries for in-process cells (0 disables caching)")
	cacheDir := flag.String("cache-dir", "", "persist in-process compile-cache entries under this directory")
	cacheDisk := flag.Int("cache-disk", 0, "max persisted cache files under -cache-dir (0 = unbounded)")
	cellTimeout := flag.Duration("cell-timeout", 10*time.Minute, "per-dispatch-attempt deadline for one cell on a worker")
	maxAttempts := flag.Int("max-attempts", 3, "failed-dispatch budget per cell (429 backpressure retries are free)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "health re-probe cadence for unhealthy workers")
	noWorkerTimeout := flag.Duration("no-worker-timeout", time.Minute, "abort after the whole fleet has been unhealthy this long")
	metricsAddr := flag.String("metrics", "", "serve coordinator /metrics + /healthz on this address (empty disables)")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
	quiet := flag.Bool("q", false, "suppress per-cell progress lines")
	verifyFlag := flag.Bool("verify", false, "replay every schedule through the independent verifier; violations fail the cell")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", flag.Arg(0))
	}
	urls := sweep.SplitList(*workers)
	var cacheFlags []string
	flag.Visit(func(f *flag.Flag) {
		if len(urls) > 0 && strings.HasPrefix(f.Name, "cache") {
			cacheFlags = append(cacheFlags, "-"+f.Name)
		}
	})
	if len(cacheFlags) > 0 {
		return fmt.Errorf("%s configure in-process cells; with -workers each daemon uses its own cache", strings.Join(cacheFlags, ", "))
	}

	var grid sweep.Grid
	if *gridFile != "" {
		f, err := os.Open(*gridFile)
		if err != nil {
			return err
		}
		err = sweep.DecodeGrid(f, &grid)
		f.Close()
		if err != nil {
			return fmt.Errorf("grid %s: %w", *gridFile, err)
		}
	} else {
		var err error
		grid, err = sweep.GridFromFlags(*topoList, *capList, *commList, *compilers, *circuits)
		if err != nil {
			return err
		}
	}

	// Expand once up front: validation happens before any output directory
	// or worker is touched, so a typo'd grid never creates a
	// half-initialized artifact dir, and the normalized grid (defaults
	// materialized) is what gets reported.
	exp, err := sweep.Expand(grid)
	if err != nil {
		return err
	}

	cfg := coord.Config{
		Workers:           urls,
		CellTimeout:       *cellTimeout,
		MaxAttempts:       *maxAttempts,
		PerWorkerInFlight: *parallelism,
		ProbeInterval:     *probeInterval,
		NoWorkerTimeout:   *noWorkerTimeout,
		Verify:            *verifyFlag,
		Logf:              log.Printf,
	}
	if len(urls) == 0 {
		if *cacheEntries > 0 {
			cfg.Cache, err = muzzle.NewCache(muzzle.CacheConfig{MaxEntries: *cacheEntries, Dir: *cacheDir, MaxDiskEntries: *cacheDisk})
			if err != nil {
				return err
			}
		} else if *cacheDir != "" {
			return fmt.Errorf("-cache-dir requires caching enabled (-cache > 0)")
		}
		// A sweep-wide flight group: a grid with overlapping coordinates
		// (the same circuit under machine points that hash identically)
		// coalesces concurrent duplicate cells instead of relying on cell
		// ordering to serialize them through the cache.
		cfg.Flight = muzzle.NewFlight()
	}
	if !*quiet {
		cfg.OnCell = printCell
	}
	c, err := coord.New(cfg)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		go func() {
			log.Printf("coordinator metrics on %s", *metricsAddr)
			srv := &http.Server{Addr: *metricsAddr, Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	where := ""
	if len(urls) > 0 {
		where = fmt.Sprintf(" across %d workers", len(urls))
	}
	fmt.Printf("sweep: %d cells%s (%d topologies x %d capacities x %d comm x circuits), compilers %v\n",
		len(exp.Cells), where, len(exp.Grid.Topologies), len(exp.Grid.Capacities),
		len(exp.Grid.CommCapacities), exp.Grid.Compilers)

	rep, err := c.RunDir(ctx, grid, *out)
	if err != nil {
		// SIGINT/SIGTERM is an orderly stop: completed cells are already
		// persisted under -out, so exit 0 and let a re-run resume. A
		// -timeout abort stays an error. RunDir returns the partial report
		// with a context error.
		if sigCtx.Err() != nil && errors.Is(err, context.Canceled) {
			done := 0
			for _, cr := range rep.Cells {
				if cr.Error == "" {
					done++
				}
			}
			fmt.Printf("interrupted: %d of %d cells persisted under %s; re-run with the same flags to resume\n",
				done, len(rep.Cells), *out)
			return nil
		}
		return err
	}
	if cfg.Cache != nil {
		s := cfg.Cache.Stats()
		fmt.Printf("cache: %d hits, %d misses (%d served from disk)\n", s.Hits, s.Misses, s.DiskHits)
	}
	met := c.MetricsSnapshot()
	fmt.Printf("dispatch: %d completed, %d backpressure retries, %d reassigned, %d failed\n",
		met.Completed, met.Retried, met.Reassigned, met.Failed)
	if n := rep.Failures(); n > 0 {
		return fmt.Errorf("%d of %d cells failed (see %s/report.json)", n, len(rep.Cells), *out)
	}
	fmt.Printf("done: %d cells -> %s/report.json, %s/report.csv\n", len(rep.Cells), *out, *out)
	return nil
}

// printCell prints one per-cell progress line.
func printCell(cr sweep.CellReport) {
	if cr.Error != "" {
		fmt.Printf("%-48s ERROR: %s\n", cr.ID, cr.Error)
		return
	}
	var parts []string
	for _, o := range cr.Outcomes {
		parts = append(parts, fmt.Sprintf("%s=%d", o.Compiler, o.Shuttles))
	}
	fmt.Printf("%-48s shuttles: %s\n", cr.ID, strings.Join(parts, " "))
}
