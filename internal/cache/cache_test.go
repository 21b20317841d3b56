package cache

import (
	"testing"
	"time"

	"muzzle/internal/circuit"
	"muzzle/internal/ckey"
	"muzzle/internal/compiler"
	"muzzle/internal/eval"
	"muzzle/internal/machine"
	"muzzle/internal/sim"
)

func sampleCircuit() *circuit.Circuit {
	c := circuit.New("sample", 4)
	c.Add1Q("h", 0)
	c.Add2Q("cx", 0, 1)
	c.Add2Q("cp", 1, 2, 0.25)
	c.Add2Q("cx", 2, 3)
	return c
}

func sampleResult(name string, shuttles int) *eval.BenchResult {
	return &eval.BenchResult{
		Name:      name,
		Qubits:    4,
		Gates2Q:   3,
		Compilers: []string{"optimized"},
		Outcomes: map[string]*eval.Outcome{
			"optimized": {
				Compiler: "optimized",
				Result: &compiler.Result{
					Circ:            circuit.New(name, 4),
					Shuttles:        shuttles,
					Swaps:           2,
					CompileTime:     42 * time.Millisecond,
					DirectionPolicy: "future-ops",
				},
				Sim: &sim.Report{Duration: 1234.5, LogFidelity: -0.25, Fidelity: 0.7788, Measures: 4},
			},
		},
	}
}

func TestLRUEviction(t *testing.T) {
	l, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	l.PutKey("a", sampleResult("a", 1))
	l.PutKey("b", sampleResult("b", 2))
	// Touch "a" so "b" becomes the eviction candidate.
	if _, ok := l.GetKey("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	l.PutKey("c", sampleResult("c", 3))

	if _, ok := l.GetKey("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if _, ok := l.GetKey("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := l.GetKey("c"); !ok {
		t.Error("c should be present")
	}
	s := l.Stats()
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Evictions)
	}
	if s.Entries != 2 {
		t.Errorf("Entries = %d, want 2", s.Entries)
	}
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
}

func TestEvalCacheInterface(t *testing.T) {
	l, err := New(Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	var _ eval.Cache = l

	key := ckey.Key(sampleCircuit(), machine.PaperL6(), []string{"optimized"}, sim.DefaultParams())
	if _, ok := l.GetKey(key); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	want := sampleResult("sample", 9)
	l.PutKey(key, want)
	got, ok := l.GetKey(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got != want {
		t.Error("in-memory hit should return the identical result pointer")
	}
}

func TestDiskPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	first, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult("persisted", 17)
	first.PutKey("deadbeef", want)

	// A fresh cache over the same directory serves the entry from disk.
	second, err := New(Config{MaxEntries: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := second.GetKey("deadbeef")
	if !ok {
		t.Fatal("disk entry not found by fresh cache")
	}
	o, w := got.Outcomes["optimized"], want.Outcomes["optimized"]
	if o == nil {
		t.Fatal("decoded result lost its outcome")
	}
	if o.Result.Shuttles != w.Result.Shuttles ||
		o.Result.Swaps != w.Result.Swaps ||
		o.Result.CompileTime != w.Result.CompileTime ||
		o.Result.DirectionPolicy != w.Result.DirectionPolicy ||
		o.Sim.LogFidelity != w.Sim.LogFidelity ||
		o.Sim.Duration != w.Sim.Duration ||
		o.Sim.Measures != w.Sim.Measures {
		t.Errorf("disk round-trip mismatch: got %+v / %+v", o.Result, o.Sim)
	}
	s := second.Stats()
	if s.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", s.DiskHits)
	}
	// The disk hit is promoted to memory: a second Get must not touch disk.
	if _, ok := second.GetKey("deadbeef"); !ok {
		t.Fatal("promoted entry missing")
	}
	if s := second.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Errorf("after promotion: DiskHits=%d Hits=%d, want 1/2", s.DiskHits, s.Hits)
	}
}
