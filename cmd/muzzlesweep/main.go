// Command muzzlesweep runs a declarative scenario sweep — topology family
// x trap capacity x compiler set x circuit family — through the muzzle
// compilation pipeline and writes deterministic JSON/CSV artifacts plus a
// resumable manifest: re-running an interrupted sweep in the same output
// directory executes only the unfinished cells, and re-running a finished
// sweep reproduces report.json byte for byte.
//
// Usage:
//
//	muzzlesweep -grid grid.json [flags]
//	muzzlesweep -topo line:6,ring:6,grid:2x3 -circuits qft:16 [flags]
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
//	-parallelism N    concurrent cells (0 = one per CPU)
//	-cache N          in-memory compile-cache entries (default 4096; 0 disables)
//	-cache-dir DIR    persist cache entries as JSON under DIR (shared across runs)
//	-cache-disk N     max persisted files under -cache-dir (0 = unbounded)
//	-timeout D        abort the sweep after this duration (0 = none)
//	-q                suppress per-cell progress lines
//	-verify           replay every schedule through the independent
//	                  machine-model verifier; violations fail the cell
//
// Artifacts under -out: report.json (the aggregated deterministic report),
// report.csv (one row per cell x compiler), manifest.json and cells/ (the
// resume state). To run the same grid on muzzled daemons instead, use
// muzzlecoord -workers URL, which writes the same artifact directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"muzzle"
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
	parallelism := flag.Int("parallelism", 0, "concurrent cells (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 4096, "in-memory compile-cache entries (0 disables caching)")
	cacheDir := flag.String("cache-dir", "", "persist compile-cache entries under this directory")
	cacheDisk := flag.Int("cache-disk", 0, "max persisted cache files under -cache-dir (0 = unbounded)")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
	quiet := flag.Bool("q", false, "suppress per-cell progress lines")
	verifyFlag := flag.Bool("verify", false, "replay every schedule through the independent verifier; violations fail the cell")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", flag.Arg(0))
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

	// Expand once: validation happens before any output directory is
	// touched, so a typo'd grid never creates a half-initialized artifact
	// dir, and the normalized grid (defaults materialized) is what runs
	// and gets reported.
	exp, err := sweep.Expand(grid)
	if err != nil {
		return err
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cache *muzzle.Cache
	if *cacheEntries > 0 {
		cache, err = muzzle.NewCache(muzzle.CacheConfig{MaxEntries: *cacheEntries, Dir: *cacheDir, MaxDiskEntries: *cacheDisk})
		if err != nil {
			return err
		}
	} else if *cacheDir != "" {
		return fmt.Errorf("-cache-dir requires caching enabled (-cache > 0)")
	}

	fmt.Printf("sweep: %d cells (%d topologies x %d capacities x %d comm x circuits), compilers %v\n",
		len(exp.Cells), len(exp.Grid.Topologies), len(exp.Grid.Capacities),
		len(exp.Grid.CommCapacities), exp.Grid.Compilers)

	// A sweep-wide flight group: a grid with overlapping coordinates (the
	// same circuit under machine points that hash identically) coalesces
	// concurrent duplicate cells instead of relying on cell ordering to
	// serialize them through the cache.
	opt := sweep.Options{Parallelism: *parallelism, Cache: cache, Flight: muzzle.NewFlight(), Verify: *verifyFlag}
	if !*quiet {
		opt.OnCell = printCell
	}

	rep, err := exp.RunDir(ctx, *out, opt)
	if err != nil {
		// SIGINT/SIGTERM is an orderly stop: completed cells are already
		// persisted under -out, so exit 0 and let a re-run resume. A
		// -timeout abort stays an error.
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
	if cache != nil {
		s := cache.Stats()
		fmt.Printf("cache: %d hits, %d misses (%d served from disk)\n", s.Hits, s.Misses, s.DiskHits)
	}
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
