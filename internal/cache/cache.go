// Package cache is the content-addressed compile/eval cache behind
// muzzle.WithCache and the muzzled service: completed per-circuit
// evaluation results keyed by a stable hash of circuit + machine +
// compiler set + simulator constants (see ckey.Key), held in an in-memory
// LRU with optional disk persistence.
//
// Both tiers hold the same summary: evaluation results keep every counter,
// policy name and simulator estimate but no operation trace, so memory
// entries equal what the disk tier stores in the JSON summary schema of
// internal/eval and rebuilds on a disk hit. Disk files are sharded by the
// first two hex digits of the key: <dir>/ab/abcdef....json. Memory eviction
// drops memory entries only; the disk tier is bounded separately by
// MaxDiskEntries — inserts past the bound trigger an mtime-ordered sweep
// (disk hits refresh the file's mtime, making the sweep LRU-ish), so a
// long-running daemon cannot fill its volume.
package cache

import (
	"container/list"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"muzzle/internal/eval"
	"muzzle/internal/faults"
)

// DefaultMaxEntries bounds the in-memory LRU when no limit is configured.
const DefaultMaxEntries = 1024

// Disk-tier degradation defaults: the tier trips to memory-only after
// DefaultDiskTripThreshold consecutive I/O errors and re-probes the disk
// every DefaultDiskRetryInterval until it recovers.
const (
	DefaultDiskTripThreshold = 8
	DefaultDiskRetryInterval = 30 * time.Second
)

// Config sizes an LRU and optionally roots its disk persistence.
type Config struct {
	// MaxEntries bounds the in-memory entry count (0 = DefaultMaxEntries).
	MaxEntries int
	// Dir, when non-empty, enables disk persistence rooted there. The
	// directory is created on first use.
	Dir string
	// MaxDiskEntries bounds the number of persisted result files under Dir
	// (0 = unbounded, the historical behavior). When an insert pushes the
	// resident count past the bound, the oldest files by modification time
	// are deleted down to the low-water mark (90% of the bound) so the
	// sweep cost amortizes over many inserts. Reads refresh mtimes, making
	// eviction approximately least-recently-used.
	MaxDiskEntries int
	// DiskTripThreshold is how many consecutive disk I/O errors trip the
	// disk tier to memory-only operation (0 = DefaultDiskTripThreshold).
	// A tripped tier stops issuing disk reads and writes — requests keep
	// succeeding from memory — and re-probes the disk periodically.
	DiskTripThreshold int
	// DiskRetryInterval is how long a tripped disk tier waits between
	// re-probe attempts (0 = DefaultDiskRetryInterval). A successful
	// probe operation recovers the tier.
	DiskRetryInterval time.Duration
	// FaultScope, when non-empty, subjects the disk tier's I/O to the
	// process-global fault injector (internal/faults) under this scope.
	// Tests only; empty in production.
	FaultScope string
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts Gets served from memory or disk.
	Hits uint64 `json:"hits"`
	// Misses counts Gets that found nothing.
	Misses uint64 `json:"misses"`
	// DiskHits counts the subset of Hits that were reloaded from disk.
	DiskHits uint64 `json:"disk_hits"`
	// Evictions counts memory entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
	// WriteErrors counts failed disk persistence attempts (best-effort:
	// a failed write never fails the evaluation).
	WriteErrors uint64 `json:"write_errors,omitempty"`
	// DiskEntries is the current resident file count of the disk tier
	// (0 when persistence is disabled).
	DiskEntries int `json:"disk_entries,omitempty"`
	// DiskEvictions counts files deleted by the MaxDiskEntries sweep.
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`
	// DiskErrors counts disk-tier I/O failures — failed reads (open or
	// decode), failed writes, and failed sweep deletions. Before this
	// counter existed, read-side failures vanished silently.
	DiskErrors uint64 `json:"disk_errors,omitempty"`
	// DiskTripped reports whether the disk tier is currently tripped to
	// memory-only operation after consecutive I/O errors.
	DiskTripped bool `json:"disk_tripped,omitempty"`
	// DiskTrips counts how many times the disk tier has tripped.
	DiskTrips uint64 `json:"disk_trips,omitempty"`
}

type entry struct {
	key string
	res *eval.BenchResult
}

// LRU is a goroutine-safe, bounded, content-addressed result cache. It
// implements eval.Cache.
type LRU struct {
	mu      sync.Mutex
	max     int
	dir     string
	maxDisk int
	ll      *list.List               // guarded by mu
	items   map[string]*list.Element // guarded by mu
	stats   Stats                    // guarded by mu

	// Disk-tier degradation config, immutable after New: consecutive
	// failed disk I/O operations (any success resets the count) reaching
	// tripAfter trip the tier to memory-only until a re-probe — the first
	// disk operation allowed once probeAt passes — succeeds.
	faultScope string
	tripAfter  int
	retryEvery time.Duration

	consecErrs int       // guarded by mu
	tripped    bool      // guarded by mu
	probeAt    time.Time // guarded by mu

	// diskMu serializes disk sweeps (listing + deleting) so concurrent
	// inserts past the bound do not race over the same victims; the
	// resident count itself lives in stats.DiskEntries under mu.
	diskMu sync.Mutex
}

// New builds an LRU from cfg. When cfg.Dir is set, it is created eagerly
// so configuration errors surface at startup rather than on first Put; the
// resident disk files are counted (and swept down to any configured bound)
// at the same time, so restarts inherit an accurate disk-tier state.
func New(cfg Config) (*LRU, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.DiskTripThreshold <= 0 {
		cfg.DiskTripThreshold = DefaultDiskTripThreshold
	}
	if cfg.DiskRetryInterval <= 0 {
		cfg.DiskRetryInterval = DefaultDiskRetryInterval
	}
	l := &LRU{
		max:        cfg.MaxEntries,
		dir:        cfg.Dir,
		maxDisk:    cfg.MaxDiskEntries,
		faultScope: cfg.FaultScope,
		tripAfter:  cfg.DiskTripThreshold,
		retryEvery: cfg.DiskRetryInterval,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		l.stats.DiskEntries = len(l.listDisk())
		if l.maxDisk > 0 && l.stats.DiskEntries > l.maxDisk {
			l.sweepDisk()
		}
	}
	return l, nil
}

// GetKey looks up a content key: memory first, then, with persistence
// enabled, the disk tier, whose decoded summary is promoted into memory.
func (l *LRU) GetKey(key string) (*eval.BenchResult, bool) {
	l.mu.Lock()
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		l.stats.Hits++
		res := el.Value.(*entry).res
		l.mu.Unlock()
		return res, true
	}
	useDisk := l.diskAllowedLocked()
	l.mu.Unlock()

	if useDisk {
		if res := l.loadDisk(key); res != nil {
			l.mu.Lock()
			// Re-check: a concurrent disk hit (or Put) may have inserted
			// the key while the lock was released; a second insert would
			// orphan a list element under the same map key.
			if el, ok := l.items[key]; ok {
				l.ll.MoveToFront(el)
				res = el.Value.(*entry).res
			} else {
				l.stats.DiskHits++
				l.insertLocked(key, res)
			}
			l.stats.Hits++
			l.mu.Unlock()
			return res, true
		}
	}
	l.mu.Lock()
	l.stats.Misses++
	l.mu.Unlock()
	return nil, false
}

// PutKey stores a result under a content key and persists its summary to
// disk when enabled.
func (l *LRU) PutKey(key string, r *eval.BenchResult) {
	l.mu.Lock()
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		el.Value.(*entry).res = r
		useDisk := l.diskAllowedLocked()
		l.mu.Unlock()
		if useDisk {
			l.storeDisk(key, r)
		}
		return
	}
	l.insertLocked(key, r)
	useDisk := l.diskAllowedLocked()
	l.mu.Unlock()
	if useDisk {
		l.storeDisk(key, r)
	}
}

// diskAllowedLocked decides whether the next operation may touch the
// disk tier. With the tier tripped, it stays memory-only until the
// re-probe deadline passes; the caller that crosses the deadline gets
// one probe attempt and the deadline advances, so a still-broken disk
// is poked once per interval, not hammered by every request.
func (l *LRU) diskAllowedLocked() bool {
	if l.dir == "" {
		return false
	}
	if !l.tripped {
		return true
	}
	now := time.Now()
	if now.Before(l.probeAt) {
		return false
	}
	l.probeAt = now.Add(l.retryEvery)
	return true
}

// noteDiskErr records one failed disk I/O operation and trips the tier
// after tripAfter consecutive failures. The trip and the recovery each
// log exactly once.
func (l *LRU) noteDiskErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.DiskErrors++
	l.consecErrs++
	if l.tripped || l.consecErrs < l.tripAfter {
		return
	}
	l.tripped = true
	l.probeAt = time.Now().Add(l.retryEvery)
	l.stats.DiskTrips++
	log.Printf("cache: disk tier %s tripped after %d consecutive I/O errors (last: %v); degrading to memory-only, re-probing every %s",
		l.dir, l.consecErrs, err, l.retryEvery)
}

// noteDiskSoftErr records a failure that is not evidence of a bad disk
// (a corrupt entry, a failed sweep deletion): counted, never trips.
func (l *LRU) noteDiskSoftErr() {
	l.mu.Lock()
	l.stats.DiskErrors++
	l.mu.Unlock()
}

// noteDiskOK records one successful disk operation, resetting the
// consecutive-error count and recovering a tripped tier.
func (l *LRU) noteDiskOK() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.consecErrs = 0
	if !l.tripped {
		return
	}
	l.tripped = false
	log.Printf("cache: disk tier %s recovered; resuming disk persistence", l.dir)
}

// insertLocked adds a fresh entry and enforces the memory bound.
func (l *LRU) insertLocked(key string, r *eval.BenchResult) {
	l.items[key] = l.ll.PushFront(&entry{key: key, res: r})
	for l.ll.Len() > l.max {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.items, oldest.Value.(*entry).key)
		l.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (l *LRU) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Entries = l.ll.Len()
	s.DiskTripped = l.tripped
	return s
}

// Len returns the current in-memory entry count.
func (l *LRU) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ll.Len()
}

// path returns the sharded disk location of a key.
func (l *LRU) path(key string) string {
	return filepath.Join(l.dir, key[:2], key+".json")
}

func (l *LRU) loadDisk(key string) *eval.BenchResult {
	if err := faults.Check(l.faultScope, faults.OpRead); err != nil {
		l.noteDiskErr(err)
		return nil
	}
	p := l.path(key)
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			l.noteDiskOK() // a clean miss is a healthy disk operation
		} else {
			l.noteDiskErr(err)
		}
		return nil
	}
	defer f.Close()
	j, err := eval.ReadResultJSON(f)
	if err != nil {
		l.noteDiskSoftErr()
		return nil // corrupt entry: treat as miss, a fresh Put overwrites it
	}
	l.noteDiskOK()
	// Refresh the file's mtime so the MaxDiskEntries sweep (oldest mtime
	// first) approximates LRU rather than FIFO. Best-effort: a failed
	// touch only makes this entry an earlier eviction candidate.
	now := time.Now()
	os.Chtimes(p, now, now) //nolint:errcheck
	return j.BenchResult()
}

// storeDisk persists a summary best-effort: the write goes to a temp file
// first and renames into place so concurrent readers never see a torn
// entry.
func (l *LRU) storeDisk(key string, r *eval.BenchResult) {
	p := l.path(key)
	fail := func(err error) {
		l.mu.Lock()
		l.stats.WriteErrors++
		l.mu.Unlock()
		l.noteDiskErr(err)
	}
	if err := faults.Check(l.faultScope, faults.OpWrite); err != nil {
		fail(err)
		return
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		fail(err)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp-*")
	if err != nil {
		fail(err)
		return
	}
	if err := eval.WriteResultJSON(tmp, r); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		fail(err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fail(err)
		return
	}
	if err := faults.Check(l.faultScope, faults.OpRename); err != nil {
		os.Remove(tmp.Name())
		fail(err)
		return
	}
	_, statErr := os.Stat(p)
	existed := statErr == nil
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		fail(err)
		return
	}
	l.noteDiskOK()
	if existed {
		return
	}
	l.mu.Lock()
	l.stats.DiskEntries++
	over := l.maxDisk > 0 && l.stats.DiskEntries > l.maxDisk
	l.mu.Unlock()
	if over {
		l.sweepDisk()
	}
}

// diskFile is one resident entry of the disk tier.
type diskFile struct {
	path  string
	mtime time.Time
}

// listDisk enumerates the resident result files under the two-level shard
// layout, skipping in-flight temp files (dot-prefixed).
func (l *LRU) listDisk() []diskFile {
	var out []diskFile
	shards, err := os.ReadDir(l.dir)
	if err != nil {
		return nil
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(l.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, diskFile{path: filepath.Join(l.dir, shard.Name(), name), mtime: info.ModTime()})
		}
	}
	return out
}

// sweepDisk enforces MaxDiskEntries: it lists the resident files and
// deletes the oldest by mtime down to the low-water mark (90% of the
// bound), so the full-scan cost amortizes over the next tenth of inserts.
// Sweeps serialize on diskMu; the counters update from the actual survivor
// count, making the accounting self-correcting even when external actors
// add or remove files.
func (l *LRU) sweepDisk() {
	l.diskMu.Lock()
	defer l.diskMu.Unlock()
	files := l.listDisk()
	if len(files) <= l.maxDisk {
		l.mu.Lock()
		l.stats.DiskEntries = len(files)
		l.mu.Unlock()
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].path < files[j].path // deterministic tie-break
	})
	// Low-water mark: 90% of the bound, but never below one file — with
	// MaxDiskEntries 1 the tier must keep the newest entry, not churn
	// through delete-everything sweeps.
	target := l.maxDisk * 9 / 10
	if target < 1 {
		target = 1
	}
	evicted := uint64(0)
	sweepErrs := uint64(0)
	remaining := len(files)
	for _, f := range files {
		if remaining <= target {
			break
		}
		if err := faults.Check(l.faultScope, faults.OpRemove); err != nil {
			sweepErrs++
			continue
		}
		if os.Remove(f.path) == nil {
			evicted++
			remaining--
		} else {
			sweepErrs++
		}
	}
	l.mu.Lock()
	l.stats.DiskEntries = remaining
	l.stats.DiskEvictions += evicted
	l.stats.DiskErrors += sweepErrs
	l.mu.Unlock()
}
