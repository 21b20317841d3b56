package cache

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/eval"
	"muzzle/internal/flight"
	"muzzle/internal/registry"
)

// summaryBytes is r's WriteResultJSON encoding with compile time zeroed:
// the form in which the cache tiers are compared with a fresh compile.
func summaryBytes(t *testing.T, r *eval.BenchResult) []byte {
	t.Helper()
	s := eval.EncodeResult(r).BenchResult()
	for _, o := range s.Outcomes {
		o.Result.CompileTime = 0
	}
	var buf bytes.Buffer
	if err := eval.WriteResultJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustNew(t *testing.T, cfg Config) *LRU {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustRun(t *testing.T, c *circuit.Circuit, opt eval.Options) *eval.BenchResult {
	t.Helper()
	r, err := eval.RunCircuit(context.Background(), c, opt)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldCache is an LRU whose lookups wait for release while g has an
// execution in flight. A RunCircuit leader re-checks the cache inside its
// execution, so it holds there, and a follower can join it.
type heldCache struct {
	*LRU
	g       *flight.Group[*eval.BenchResult]
	release chan struct{}
}

func (h heldCache) GetKey(key string) (*eval.BenchResult, bool) {
	if h.g.Stats().InFlight > 0 {
		<-h.release
	}
	return h.LRU.GetKey(key)
}

// coalesce runs c under leaderOpt and, while that execution is in flight,
// under followerOpt on the same flight group, and returns both results. The
// leader fills a fresh memory tier; the follower uses followerOpt's cache.
func coalesce(t *testing.T, c *circuit.Circuit, leaderOpt, followerOpt eval.Options) (leader, follower *eval.BenchResult) {
	t.Helper()
	g := new(flight.Group[*eval.BenchResult])
	held := heldCache{LRU: mustNew(t, Config{}), g: g, release: make(chan struct{})}
	leaderOpt.Cache, leaderOpt.Flight = held, g
	followerOpt.Flight = g
	var leaderErr, followerErr error
	leaderDone, followerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderDone)
		leader, leaderErr = eval.RunCircuit(context.Background(), c, leaderOpt)
	}()
	waitFor(t, "the leader's execution", func() bool { return g.Stats().InFlight == 1 })
	go func() {
		defer close(followerDone)
		follower, followerErr = eval.RunCircuit(context.Background(), c, followerOpt)
	}()
	waitFor(t, "the follower to join", func() bool { return g.Stats().Coalesced == 1 })
	close(held.release)
	<-leaderDone
	<-followerDone
	if leaderErr != nil || followerErr != nil {
		t.Fatalf("%s: leader %v, follower %v", c.Name, leaderErr, followerErr)
	}
	if s := g.Stats(); s.Executions != 1 || s.Coalesced != 1 {
		t.Fatalf("%s: flight stats %+v, want one execution and one follower", c.Name, s)
	}
	return leader, follower
}

// Differential oracle: every cache tier and single-flight return what a
// fresh compile returns. A fresh uncached RunCircuit, a memory hit, a disk
// hit (a new LRU over the same directory) and a single-flight follower's
// result must encode to the same bytes, compile time aside, with
// verification off and on.
func TestTiersMatchFreshCompile(t *testing.T) {
	circuits := []*circuit.Circuit{bench.Random(30, 200, 1), bench.Random(48, 300, 2)}
	for _, s := range bench.Catalog() {
		circuits = append(circuits, s.Build())
	}
	for _, verified := range []bool{false, true} {
		opt := eval.DefaultOptions()
		opt.Verify = verified
		dir := t.TempDir()
		mem := mustNew(t, Config{Dir: dir})
		for _, c := range circuits {
			want := summaryBytes(t, mustRun(t, c, opt))
			if verified != bytes.Contains(want, []byte(`"verified": true`)) {
				t.Fatalf("%s (verify %v): summary %s", c.Name, verified, want)
			}

			cached := opt
			cached.Cache = mem
			stored := mustRun(t, c, cached)
			memHit := mustRun(t, c, cached)
			if memHit != stored {
				t.Fatalf("%s (verify %v): second run was not a memory hit", c.Name, verified)
			}

			disk := mustNew(t, Config{Dir: dir})
			fromDisk := cached
			fromDisk.Cache = disk
			diskHit := mustRun(t, c, fromDisk)
			if s := disk.Stats(); s.DiskHits != 1 {
				t.Fatalf("%s (verify %v): disk hits = %d, want 1", c.Name, verified, s.DiskHits)
			}

			leader, follower := coalesce(t, c, opt, opt)
			if follower != leader {
				t.Fatalf("%s (verify %v): the follower did not share the leader's result", c.Name, verified)
			}

			for tier, r := range map[string]*eval.BenchResult{
				"fresh into the cache": stored, "memory hit": memHit, "disk hit": diskHit, "flight follower": follower,
			} {
				if got := summaryBytes(t, r); !bytes.Equal(got, want) {
					t.Errorf("%s (verify %v): %s encodes\n%s\nwant\n%s", c.Name, verified, tier, got, want)
				}
			}
		}
	}
}

// countingCompiler is the optimized compiler under a name whose factory
// counts its calls: RunCircuit calls it once per compile.
const countingCompiler = "cache-test-counting"

var compiles atomic.Int64

// countingOptions evaluates with countingCompiler alone.
func countingOptions(t *testing.T) eval.Options {
	t.Helper()
	// The registry is process-wide, so a repeated run (-count=N) finds the
	// compiler already registered.
	if !registry.Has(countingCompiler) {
		err := registry.Register(countingCompiler, func() *compiler.Compiler {
			compiles.Add(1)
			return core.New()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	opt := eval.DefaultOptions()
	opt.Compilers = []string{countingCompiler}
	return opt
}

// verifiedRecompile runs c verifying against cache l, which holds an
// unverified entry, and requires a fresh compile whose verified result is
// returned and stored over the entry.
func verifiedRecompile(t *testing.T, c *circuit.Circuit, opt eval.Options, l *LRU) *eval.BenchResult {
	t.Helper()
	opt.Cache, opt.Verify = l, true
	before := compiles.Load()
	r := mustRun(t, c, opt)
	if got := compiles.Load() - before; got != 1 {
		t.Fatalf("verifying run compiled %d times, want 1", got)
	}
	if !r.Verified {
		t.Fatal("verifying run returned an unverified result")
	}
	if stored, ok := l.GetKey(Key(c, opt.Config, opt.Compilers, opt.Sim)); !ok || stored != r {
		t.Fatal("the verified result was not stored over the unverified entry")
	}
	return r
}

// A memory hit stored by a non-verifying run is a miss for a verifying one.
func TestVerifyingRunRecompilesUnverifiedMemoryHit(t *testing.T) {
	opt := countingOptions(t)
	c := bench.QFT(8)
	l := mustNew(t, Config{})
	unverified := opt
	unverified.Cache = l
	if r := mustRun(t, c, unverified); r.Verified {
		t.Fatal("a run without verification produced a Verified result")
	}
	verifiedRecompile(t, c, opt, l)
	if s := l.Stats(); s.Hits != 2 {
		t.Fatalf("hits = %d, want 2: the unverified entry and the verified one", s.Hits)
	}
}

// A disk summary written by a non-verifying run is a miss for a verifying
// one, and the verified result replaces it on disk too.
func TestVerifyingRunRecompilesUnverifiedDiskHit(t *testing.T) {
	opt := countingOptions(t)
	c := bench.QFT(8)
	dir := t.TempDir()
	unverified := opt
	unverified.Cache = mustNew(t, Config{Dir: dir})
	if r := mustRun(t, c, unverified); r.Verified {
		t.Fatal("a run without verification produced a Verified result")
	}
	l := mustNew(t, Config{Dir: dir})
	verifiedRecompile(t, c, opt, l)
	if s := l.Stats(); s.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", s.DiskHits)
	}
	reloaded, ok := mustNew(t, Config{Dir: dir}).GetKey(Key(c, opt.Config, opt.Compilers, opt.Sim))
	if !ok || !reloaded.Verified {
		t.Fatal("the disk tier still holds the unverified summary")
	}
}

// A verifying follower does not take a non-verifying leader's shared
// result: it compiles, verifies, and stores its own.
func TestVerifyingRunRecompilesUnverifiedFlightResult(t *testing.T) {
	opt := countingOptions(t)
	c := bench.QFT(8)
	l := mustNew(t, Config{})
	follower := opt
	follower.Cache, follower.Verify = l, true
	before := compiles.Load()
	leader, r := coalesce(t, c, opt, follower)
	if got := compiles.Load() - before; got != 2 {
		t.Fatalf("compiles = %d, want 2: the leader's and the follower's own", got)
	}
	if leader.Verified || !r.Verified || r == leader {
		t.Fatalf("follower took the unverified shared result (leader verified %v, follower verified %v)", leader.Verified, r.Verified)
	}
	if stored, ok := l.GetKey(Key(c, opt.Config, opt.Compilers, opt.Sim)); !ok || stored != r {
		t.Fatal("the follower's verified result was not stored")
	}
}
