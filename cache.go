package muzzle

import (
	"io"
	"time"

	"muzzle/internal/cache"
	"muzzle/internal/eval"
)

// CacheConfig sizes a compile cache and optionally roots its disk
// persistence.
type CacheConfig struct {
	// MaxEntries bounds the in-memory LRU (0 = 1024).
	MaxEntries int
	// Dir, when non-empty, persists result summaries as JSON under
	// Dir/<k[:2]>/<k>.json (k = the hex content hash); a later process
	// pointed at the same directory serves them without recompiling.
	Dir string
	// MaxDiskEntries bounds the persisted file count under Dir (0 =
	// unbounded). Inserts past the bound delete the oldest files by
	// modification time (reads refresh mtimes, so eviction is
	// approximately LRU); a long-running daemon thus cannot fill its
	// volume. Eviction and resident-file counts are exposed via Stats.
	MaxDiskEntries int
	// DiskTripThreshold is how many consecutive disk-tier I/O errors
	// trip the cache to memory-only operation (0 = 8). A tripped tier
	// never fails a request — lookups and inserts keep working from
	// memory — and re-probes the disk periodically, recovering on the
	// first successful operation. Trips and errors are exposed via
	// Stats (DiskTripped, DiskTrips, DiskErrors).
	DiskTripThreshold int
	// DiskRetryInterval is how long a tripped disk tier waits between
	// re-probe attempts (0 = 30s).
	DiskRetryInterval time.Duration
	// FaultScope, when non-empty, subjects the disk tier's I/O to the
	// process-global fault injector under this scope — the hook the
	// chaos tests use to exercise trips. Leave empty in production.
	FaultScope string
}

// Cache is a content-addressed store of completed per-circuit evaluation
// results, keyed by a stable hash of circuit content + machine + compiler
// set + simulator constants. Install one with WithCache; a single Cache is
// safe to share across pipelines and goroutines (the muzzled service runs
// every job through one). Memory and disk hits alike return the summary an
// evaluation keeps (counters, policies, simulator estimates and the
// Verified bit — no operation trace), and cannot be told apart.
type Cache struct {
	lru *cache.LRU
}

// NewCache builds a compile cache. The persistence directory, when
// configured, is created eagerly so path problems surface here.
func NewCache(cfg CacheConfig) (*Cache, error) {
	lru, err := cache.New(cache.Config{
		MaxEntries:        cfg.MaxEntries,
		Dir:               cfg.Dir,
		MaxDiskEntries:    cfg.MaxDiskEntries,
		DiskTripThreshold: cfg.DiskTripThreshold,
		DiskRetryInterval: cfg.DiskRetryInterval,
		FaultScope:        cfg.FaultScope,
	})
	if err != nil {
		return nil, newError(ErrBadOption, "NewCache", err)
	}
	return &Cache{lru: lru}, nil
}

// CacheStats snapshot the cache effectiveness counters.
type CacheStats = cache.Stats

// Stats returns a point-in-time snapshot of hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats { return c.lru.Stats() }

// Len returns the current in-memory entry count.
func (c *Cache) Len() int { return c.lru.Len() }

// WithCache installs a compile cache on the pipeline: evaluation runs
// (Evaluate, EvaluateStream, EvaluateCircuit, EvaluateNISQ, EvaluateRandom)
// consult it before invoking any compiler and store fresh results on the
// way out. Runs with a custom WithMapper bypass the cache, since the mapper
// is not part of the content hash.
func WithCache(c *Cache) PipelineOption {
	return func(p *Pipeline) error {
		if c == nil {
			return newErrorf(ErrBadOption, "WithCache", "cache must not be nil")
		}
		p.opt.Cache = c.lru
		return nil
	}
}

// EvalResultJSON is the machine-readable per-circuit result schema shared
// by the muzzled service, cmd/muzzle -json, and the cache's disk tier.
type EvalResultJSON = eval.ResultJSON

// EvalOutcomeJSON is one compiler's summary within an EvalResultJSON.
type EvalOutcomeJSON = eval.OutcomeJSON

// EncodeEvalResult summarizes an evaluation result into its JSON schema.
func EncodeEvalResult(r *EvalResult) *EvalResultJSON { return eval.EncodeResult(r) }

// WriteEvalResultJSON serializes an evaluation result summary as indented
// JSON — the same schema the muzzled service returns.
func WriteEvalResultJSON(w io.Writer, r *EvalResult) error {
	return eval.WriteResultJSON(w, r)
}

// ReadEvalResultJSON parses a summary written by WriteEvalResultJSON (or
// returned by the muzzled service).
func ReadEvalResultJSON(r io.Reader) (*EvalResultJSON, error) {
	return eval.ReadResultJSON(r)
}
