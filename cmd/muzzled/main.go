// Command muzzled is the muzzle compilation service: an HTTP daemon that
// absorbs compile/evaluate jobs into a bounded worker pool backed by
// muzzle.Pipeline, serves repeated work from a content-addressed compile
// cache, coalesces identical in-flight jobs so concurrent duplicates
// compile once, journals every job to a crash-safe write-ahead log, and
// streams per-circuit results over SSE.
//
// Usage:
//
//	muzzled [flags]
//
// Flags:
//
//	-addr ADDR        listen address (default :8077)
//	-workers N        concurrent jobs (default 2)
//	-queue-depth N    admission bound on pending jobs; submits past it are
//	                  rejected with 429 + Retry-After (default 256)
//	-parallelism N    concurrent circuit evaluations per job (0 = one per CPU)
//	-cache N          in-memory compile-cache entries (default 1024; 0 disables)
//	-cache-dir DIR    persist cache entries as JSON under DIR (survives restarts)
//	-cache-disk N     max persisted files under -cache-dir; the oldest (by
//	                  mtime, refreshed on read) are swept past the bound
//	                  (default 16384; 0 = unbounded)
//	-journal DIR      job journal directory (default <cache-dir>/journal when
//	                  -cache-dir is set; empty otherwise disables durability).
//	                  Jobs a dead daemon owed are recovered on restart.
//	-drain-timeout D  how long SIGTERM/SIGINT lets running jobs finish before
//	                  hard-canceling them (default 15s)
//	-pprof ADDR       serve net/http/pprof on ADDR (empty disables)
//	-worker-id ID     name this daemon in the /healthz worker identity block
//	                  (default: a random id per process); a sweep
//	                  coordinator uses it to tell its workers apart
//	-verify           replay every schedule through the independent
//	                  verifier; per-job opt-in is {"verify": true}
//	-traps N          traps in the linear topology (default 6)
//	-capacity N       total trap capacity (default 17)
//	-comm N           communication capacity (default 2)
//
// Endpoints:
//
//	POST   /v1/jobs             submit {"qasm": ...} or {"random": {...}}
//	GET    /v1/jobs/{id}        job snapshot with per-circuit results
//	DELETE /v1/jobs/{id}        cancel a pending or running job (durable)
//	GET    /v1/jobs/{id}/stream SSE per-circuit events (history replayed)
//	POST   /v1/sweeps           submit a scenario-sweep grid
//	POST   /v1/cells            execute one sweep cell synchronously (the
//	                            distributed-sweep worker endpoint; see
//	                            muzzlesweep -workers)
//	GET    /v1/compilers        compiler registry listing
//	GET    /healthz             liveness ("ok" or "draining") + queue depth
//	                            + worker identity
//	GET    /metrics             Prometheus-style metrics
//
// SIGINT/SIGTERM drain gracefully: new submissions are refused (503), the
// listener stops, running jobs get -drain-timeout to finish (stragglers
// are canceled and recovered as pending by the next start), queued jobs
// stay pending in the journal, and the journal is checkpointed before the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served only via -pprof
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"muzzle"
	"muzzle/internal/service"
	"muzzle/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "muzzled:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 2, "concurrent jobs")
	queueDepth := flag.Int("queue-depth", 256, "admission bound on pending jobs (submits past it get 429)")
	flag.IntVar(queueDepth, "queue", 256, "alias for -queue-depth")
	parallelism := flag.Int("parallelism", 0, "concurrent circuit evaluations per job (0 = one per CPU)")
	cacheEntries := flag.Int("cache", 1024, "in-memory compile-cache entries (0 disables caching)")
	cacheDir := flag.String("cache-dir", "", "persist compile-cache entries under this directory")
	cacheDisk := flag.Int("cache-disk", 16384, "max persisted cache files under -cache-dir (0 = unbounded)")
	journalDir := flag.String("journal", "", "job journal directory (default <cache-dir>/journal; empty without -cache-dir disables durability)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown lets running jobs finish")
	traps := flag.Int("traps", 6, "number of traps in the linear topology")
	capacity := flag.Int("capacity", 17, "total trap capacity")
	comm := flag.Int("comm", 2, "communication capacity")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	verifyAll := flag.Bool("verify", false, "replay every schedule through the independent verifier (forces per-request verify on)")
	workerID := flag.String("worker-id", "", "worker identity reported on /healthz (default: a random id per process)")
	flag.Parse()

	// Live profiling of the compile hot paths. The profiler runs on its own
	// listener (the default mux, where the blank pprof import registers its
	// handlers) so the job API surface never exposes debug endpoints; it is
	// entirely off unless -pprof is given.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var cache *muzzle.Cache
	if *cacheEntries > 0 {
		var err error
		cache, err = muzzle.NewCache(muzzle.CacheConfig{MaxEntries: *cacheEntries, Dir: *cacheDir, MaxDiskEntries: *cacheDisk})
		if err != nil {
			return err
		}
	} else if *cacheDir != "" {
		return fmt.Errorf("-cache-dir requires caching enabled (-cache > 0)")
	}

	// The journal defaults into the disk-cache directory because the two
	// are designed to restart together: the journal re-enqueues the jobs a
	// dead daemon owed, and the persisted cache makes re-running their
	// completed circuits free.
	jdir := *journalDir
	if jdir == "" && *cacheDir != "" {
		jdir = filepath.Join(*cacheDir, "journal")
	}
	var journal *store.Journal
	if jdir != "" {
		var err error
		journal, err = store.Open(jdir, store.Options{})
		if err != nil {
			return err
		}
		defer journal.Close()
		if s := journal.Stats(); s.Jobs > 0 || s.TruncatedBytes > 0 {
			log.Printf("journal %s: %d jobs replayed (%d WAL records, %d torn bytes truncated)",
				jdir, s.Jobs, s.Replayed, s.TruncatedBytes)
		}
	}

	machine, err := muzzle.NewLinearMachine(*traps, *capacity, *comm)
	if err != nil {
		return fmt.Errorf("invalid machine flags: %w", err)
	}

	mgr := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		Cache:            cache,
		Flight:           muzzle.NewFlight(),
		Journal:          journal,
		SweepParallelism: *parallelism,
		Verify:           *verifyAll,
		WorkerID:         *workerID,
		PipelineOptions: []muzzle.PipelineOption{
			muzzle.WithMachine(machine),
			muzzle.WithParallelism(*parallelism),
		},
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mgr.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("muzzled listening on %s (workers=%d, queue-depth=%d, cache=%d entries, dir=%q, journal=%q)",
			*addr, *workers, *queueDepth, *cacheEntries, *cacheDir, jdir)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		mgr.Close()
		return err
	case <-ctx.Done():
	}

	// Drain order matters: the manager drains first — admission stops (new
	// submits get 503), running jobs finish within the deadline, and their
	// terminal events close the SSE streams — so Shutdown's wait for active
	// handlers can complete. The other way around, a connected stream would
	// stall Shutdown until its timeout. Queued jobs are deliberately left
	// untouched: the journal holds them as pending for the next start.
	log.Printf("muzzled draining (timeout %s)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	mgr.Drain(drainCtx)
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("muzzled stopped")
	return nil
}
