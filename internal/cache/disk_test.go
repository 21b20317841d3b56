package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// diskKey returns a distinct, shard-friendly hex-ish key.
func diskKey(i int) string { return fmt.Sprintf("%02x%028x", i%256, i) }

// countDiskFiles walks the shard layout counting resident result files.
func countDiskFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	shards, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if !s.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, s.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += len(files)
	}
	return n
}

// agedPut inserts a key and backdates its file so the mtime order of
// successive inserts is unambiguous even on filesystems with coarse
// timestamps.
func agedPut(t *testing.T, l *LRU, key string, age time.Duration) {
	t.Helper()
	l.PutKey(key, sampleResult(key, 1))
	p := l.path(key)
	mt := time.Now().Add(-age)
	if err := os.Chtimes(p, mt, mt); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBoundSweepsOldest(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{MaxEntries: 4, Dir: dir, MaxDiskEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Five inserts, oldest first; the fifth crosses the bound and the
	// sweep deletes down to the low-water mark (90% of 4 = 3).
	for i := 0; i < 5; i++ {
		agedPut(t, l, diskKey(i), time.Duration(100-i)*time.Minute)
	}
	if n := countDiskFiles(t, dir); n > 4 {
		t.Fatalf("disk holds %d files, bound is 4", n)
	}
	s := l.Stats()
	if s.DiskEvictions == 0 {
		t.Fatalf("no disk evictions recorded: %+v", s)
	}
	if s.DiskEntries != countDiskFiles(t, dir) {
		t.Fatalf("stats report %d disk entries, dir holds %d", s.DiskEntries, countDiskFiles(t, dir))
	}
	// The oldest file is the one that must be gone; the newest survives.
	if _, err := os.Stat(l.path(diskKey(0))); !os.IsNotExist(err) {
		t.Fatalf("oldest entry survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(l.path(diskKey(4))); err != nil {
		t.Fatalf("newest entry swept: %v", err)
	}
}

// TestDiskBoundOneKeepsNewest pins the low-water clamp: with a bound of 1
// the sweep keeps the newest file instead of deleting everything.
func TestDiskBoundOneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{MaxEntries: 4, Dir: dir, MaxDiskEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	agedPut(t, l, diskKey(0), time.Hour)
	l.PutKey(diskKey(1), sampleResult("r", 1))
	if n := countDiskFiles(t, dir); n != 1 {
		t.Fatalf("disk holds %d files after sweep, want exactly 1", n)
	}
	if _, err := os.Stat(l.path(diskKey(1))); err != nil {
		t.Fatalf("newest entry deleted by its own insert's sweep: %v", err)
	}
}

func TestDiskBoundZeroIsUnbounded(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{MaxEntries: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.PutKey(diskKey(i), sampleResult("r", 1))
	}
	if n := countDiskFiles(t, dir); n != 20 {
		t.Fatalf("unbounded disk tier holds %d files, want 20", n)
	}
	if s := l.Stats(); s.DiskEvictions != 0 || s.DiskEntries != 20 {
		t.Fatalf("unexpected disk stats %+v", s)
	}
}

func TestDiskBoundStartupSweep(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Config{MaxEntries: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		agedPut(t, seed, diskKey(i), time.Duration(100-i)*time.Minute)
	}
	// A restart with a bound below the resident count sweeps immediately
	// and reports the surviving count.
	l, err := New(Config{MaxEntries: 2, Dir: dir, MaxDiskEntries: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := countDiskFiles(t, dir); n > 5 {
		t.Fatalf("startup sweep left %d files, bound is 5", n)
	}
	s := l.Stats()
	if s.DiskEntries > 5 || s.DiskEvictions == 0 {
		t.Fatalf("startup sweep stats %+v", s)
	}
	// Survivors are still readable.
	if _, ok := l.GetKey(diskKey(9)); !ok {
		t.Fatal("newest entry unreadable after startup sweep")
	}
}

func TestDiskReadRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{MaxEntries: 1, Dir: dir, MaxDiskEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		agedPut(t, l, diskKey(i), time.Duration(100-i)*time.Minute)
	}
	// Touch the oldest via a disk read (MaxEntries 1 keeps it out of
	// memory by the time we get back to it), then insert past the bound:
	// the sweep must evict by recency, sparing the freshly read key.
	if _, ok := l.GetKey(diskKey(0)); !ok {
		t.Fatal("disk read of oldest key failed")
	}
	l.PutKey(diskKey(3), sampleResult("r", 1))
	if _, err := os.Stat(l.path(diskKey(0))); err != nil {
		t.Fatalf("recently read entry was swept: %v", err)
	}
	if _, err := os.Stat(l.path(diskKey(1))); !os.IsNotExist(err) {
		t.Fatalf("least recently used entry survived (err=%v)", err)
	}
}

// A disk entry that decodes but names a compiler without an outcome is
// corrupt: the lookup counts it as a disk error and misses, where
// rebuilding it would dereference the missing outcome.
func TestDiskNullOutcomeIsAMiss(t *testing.T) {
	dir := t.TempDir()
	l, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := diskKey(1)
	if err := os.MkdirAll(filepath.Dir(l.path(key)), 0o755); err != nil {
		t.Fatal(err)
	}
	body := `{"circuit":"c","qubits":4,"gates_2q":3,"compilers":["baseline"],"outcomes":{"baseline":null}}`
	if err := os.WriteFile(l.path(key), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.GetKey(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if s := l.Stats(); s.DiskErrors != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 disk error and 1 miss", s)
	}
}
