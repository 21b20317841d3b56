package eval

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"muzzle/internal/bench"
	"muzzle/internal/ckey"
	"muzzle/internal/verify"
)

// TestRunCircuitVerifyClean pins that opting into verification does not
// change the outcome of a legal compilation — same results, no error.
func TestRunCircuitVerifyClean(t *testing.T) {
	opt := smallOptions()
	circ := bench.QFT(10)
	plain, err := RunCircuit(context.Background(), circ, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Verify = true
	verified, err := RunCircuit(context.Background(), circ, opt)
	if err != nil {
		t.Fatalf("verification rejected a legal schedule: %v", err)
	}
	for _, name := range verified.Compilers {
		a, b := plain.Outcome(name), verified.Outcome(name)
		if a.Result.Shuttles != b.Result.Shuttles {
			t.Fatalf("%s: verification changed shuttle count %d -> %d",
				name, a.Result.Shuttles, b.Result.Shuttles)
		}
	}
}

// TestRunCircuitVerifyEnvVar pins the MUZZLE_VERIFY debug backstop: the
// environment variable alone turns verification on (observable only as
// "still succeeds" for legal schedules — the error path is covered by the
// verifier's own unit tests, since registry compilers cannot be coaxed
// into emitting illegal traces).
func TestRunCircuitVerifyEnvVar(t *testing.T) {
	t.Setenv("MUZZLE_VERIFY", "1")
	if !envVerify() {
		t.Fatal("MUZZLE_VERIFY=1 not honored")
	}
	opt := smallOptions()
	if _, err := RunCircuit(context.Background(), bench.QFT(8), opt); err != nil {
		t.Fatalf("env-forced verification rejected a legal schedule: %v", err)
	}
	t.Setenv("MUZZLE_VERIFY", "")
	if envVerify() {
		t.Fatal("empty MUZZLE_VERIFY treated as on")
	}
	t.Setenv("MUZZLE_VERIFY", "0")
	if envVerify() {
		t.Fatal("MUZZLE_VERIFY=0 treated as on")
	}
}

// mapCache is a trivial eval.Cache for tests, keyed by content key.
type mapCache struct{ m map[string]*BenchResult }

func (c *mapCache) GetKey(key string) (*BenchResult, bool) {
	r, ok := c.m[key]
	return r, ok
}
func (c *mapCache) PutKey(key string, r *BenchResult) { c.m[key] = r }

// TestRunCircuitVerifyCacheHit pins that a verifying caller is not fooled
// by a cache entry stored by a non-verifying run: an unverified hit is a
// miss for it, so a tampered entry never reaches it, and the verified
// result it compiles instead is stored over the entry.
func TestRunCircuitVerifyCacheHit(t *testing.T) {
	ctx := context.Background()
	opt := smallOptions()
	cache := &mapCache{m: make(map[string]*BenchResult)}
	opt.Cache = cache
	circ := bench.QFT(8)
	key := ckey.Key(circ, opt.Config, opt.compilerNames(), opt.Sim)
	// Populate without verification.
	fresh, err := RunCircuit(ctx, circ, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Verified {
		t.Fatal("a run without verification produced a Verified result")
	}
	// Tamper with the unverified entry.
	cached := cache.m[key]
	name := cached.Compilers[0]
	wantShuttles := fresh.Outcome(name).Result.Shuttles
	bad := *cached.Outcomes[name].Result
	bad.Shuttles = -1
	cached.Outcomes[name] = &Outcome{Compiler: name, Result: &bad, Sim: cached.Outcomes[name].Sim}
	// Without verification the tampered hit still flows through (the
	// historical contract: the cache is trusted unless asked otherwise).
	if r, err := RunCircuit(ctx, circ, opt); err != nil || r != cached {
		t.Fatalf("non-verifying run did not serve the cache hit (err %v)", err)
	}
	// The verifying caller compiles, verifies, and stores over the entry.
	opt.Verify = true
	r, err := RunCircuit(ctx, circ, opt)
	if err != nil {
		t.Fatalf("verifying run: %v", err)
	}
	if r == cached || !r.Verified {
		t.Fatalf("verifying run accepted the unverified entry (Verified %v)", r.Verified)
	}
	if got := r.Outcome(name).Result.Shuttles; got != wantShuttles {
		t.Fatalf("verifying run: %s shuttles = %d, want %d", name, got, wantShuttles)
	}
	if cache.m[key] != r {
		t.Fatal("verified result was not stored over the unverified entry")
	}
	// A verified entry serves the next verifying caller.
	if again, err := RunCircuit(ctx, circ, opt); err != nil || again != r {
		t.Fatalf("verified entry not served to a verifying caller (err %v)", err)
	}
}

// TestVerifyErrorTyped pins the typed-error contract consumed by the
// service and the public boundary: a *verify.Error survives errors.As
// through the %w wrapping RunCircuit applies.
func TestVerifyErrorTyped(t *testing.T) {
	inner := &verify.Error{Circuit: "c", Compiler: "x",
		Violations: []verify.Violation{{Op: 3, Kind: verify.KindEdge, Detail: "d"}}}
	wrapped := fmt.Errorf("eval %s: %w", "c", inner) // RunCircuit's wrapping
	var vErr *verify.Error
	if !errors.As(wrapped, &vErr) || len(vErr.Violations) != 1 {
		t.Fatalf("verify.Error lost through wrapping: %v", wrapped)
	}
	if vErr.Violations[0].Kind != verify.KindEdge {
		t.Fatalf("violation kind lost: %+v", vErr.Violations[0])
	}
}
