package muzzle

// Trace-equivalence harness for the future-gate index (PR: zero-rescan
// scheduling). The engine has two read paths: the indexed default and the
// naive rescan reference (Compiler.DisableIndex). They must produce
// byte-identical traces — same Ops, same Order, same Shuttles — on every
// workload, or the index is not an optimization but a behavior change that
// would silently invalidate the paper's Table II/III artifacts.

import (
	"fmt"
	"math/rand"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// equivMachines are the hardware models the equivalence suite sweeps: the
// paper's L6 plus ring and grid topologies (different path structure, so
// re-balancing and avoid lists behave differently).
func equivMachines() map[string]machine.Config {
	return map[string]machine.Config{
		"L6":   machine.PaperL6(),
		"R6":   {Topology: topo.Ring(6), Capacity: 17, CommCapacity: 2},
		"G2x3": {Topology: topo.Grid(2, 3), Capacity: 17, CommCapacity: 2},
	}
}

// equivCompilers build fresh compiler pairs per run so no state leaks.
func equivCompilers() map[string]func() *compiler.Compiler {
	return map[string]func() *compiler.Compiler{
		"baseline":  func() *compiler.Compiler { return baseline.New() },
		"optimized": core.New,
	}
}

func assertTraceEqual(t *testing.T, naive, fast *compiler.Result) {
	t.Helper()
	if naive.Shuttles != fast.Shuttles {
		t.Fatalf("shuttles diverged: naive=%d indexed=%d", naive.Shuttles, fast.Shuttles)
	}
	if len(naive.Order) != len(fast.Order) {
		t.Fatalf("order length diverged: naive=%d indexed=%d", len(naive.Order), len(fast.Order))
	}
	for i := range naive.Order {
		if naive.Order[i] != fast.Order[i] {
			t.Fatalf("order diverged at %d: naive gate %d vs indexed gate %d", i, naive.Order[i], fast.Order[i])
		}
	}
	if len(naive.Ops) != len(fast.Ops) {
		t.Fatalf("trace length diverged: naive=%d indexed=%d", len(naive.Ops), len(fast.Ops))
	}
	for i := range naive.Ops {
		if naive.Ops[i] != fast.Ops[i] {
			t.Fatalf("trace diverged at op %d: naive %v vs indexed %v", i, naive.Ops[i], fast.Ops[i])
		}
	}
	if naive.Reorders != fast.Reorders || naive.Rebalances != fast.Rebalances {
		t.Fatalf("decision counters diverged: reorders %d/%d, rebalances %d/%d",
			naive.Reorders, fast.Reorders, naive.Rebalances, fast.Rebalances)
	}
}

func checkEquivalence(t *testing.T, c *circuit.Circuit, cfg machine.Config) {
	t.Helper()
	for name, build := range equivCompilers() {
		naiveComp := build()
		naiveComp.DisableIndex = true
		fastComp := build()
		naive, errN := naiveComp.CompileContext(t.Context(), c, cfg)
		fast, errF := fastComp.CompileContext(t.Context(), c, cfg)
		if (errN == nil) != (errF == nil) {
			t.Fatalf("%s: error divergence: naive=%v indexed=%v", name, errN, errF)
		}
		if errN != nil {
			continue // both failed identically-shaped; nothing to compare
		}
		assertTraceEqual(t, naive, fast)
	}
}

// TestTraceEquivalenceRandomSuite sweeps randomized circuits over all three
// topologies with both compilers.
func TestTraceEquivalenceRandomSuite(t *testing.T) {
	type spec struct{ qubits, gates2q int }
	specs := []spec{{12, 40}, {30, 200}, {60, 600}}
	for mname, cfg := range equivMachines() {
		for _, s := range specs {
			for seed := int64(1); seed <= 3; seed++ {
				c := bench.Random(s.qubits, s.gates2q, seed)
				t.Run(mname+"/"+c.Name, func(t *testing.T) {
					checkEquivalence(t, c, cfg)
				})
			}
		}
	}
}

// TestTraceEquivalencePaperSuite runs the five Table II benchmarks (the
// artifacts the README pins) through both read paths on the paper machine.
func TestTraceEquivalencePaperSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite equivalence is slow; run without -short")
	}
	cfg := machine.PaperL6()
	for _, spec := range bench.Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			checkEquivalence(t, spec.Build(), cfg)
		})
	}
}

// TestTraceEquivalenceCongested forces heavy re-balancing and re-ordering:
// tiny traps, no communication slack, dense interaction graphs — the regime
// where every policy decision point fires.
func TestTraceEquivalenceCongested(t *testing.T) {
	for _, cfg := range []machine.Config{
		{Topology: topo.Linear(4), Capacity: 4, CommCapacity: 1},
		{Topology: topo.Ring(5), Capacity: 3, CommCapacity: 1},
		{Topology: topo.Grid(2, 2), Capacity: 5, CommCapacity: 1},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			maxQ := cfg.Topology.NumTraps() * cfg.MaxInitialLoad()
			c := bench.Random(maxQ, maxQ*6, seed)
			t.Run(cfg.Topology.Name()+"/"+c.Name, func(t *testing.T) {
				checkEquivalence(t, c, cfg)
			})
		}
	}
}

// TestTraceEquivalenceHoists pins the hardest equivalence case: Algorithm-1
// hoists, whose candidate evaluation uses per-candidate excluded windows and
// which mutate the order mid-compile (the index must re-sort itself). Dense
// 1Q interleaving suppresses hoists (the nearest 1Q predecessor is always
// pending), so this suite uses 2Q-only circuits on initially-full traps and
// asserts the optimized compiler actually reordered something.
func TestTraceEquivalenceHoists(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 4, CommCapacity: 0}
	totalReorders := 0
	for seed := 0; seed < 6; seed++ {
		nq := cfg.Topology.NumTraps()*cfg.Capacity - 2
		c := circuit.New(fmt.Sprintf("dense2q-%d", seed), nq)
		for i := 0; i < nq*8; i++ {
			a := rng.Intn(nq)
			b := rng.Intn(nq - 1)
			if b >= a {
				b++
			}
			c.Add2Q("ms", a, b)
		}
		naive := core.New()
		naive.DisableIndex = true
		fast := core.New()
		resN, errN := naive.CompileContext(t.Context(), c, cfg)
		resF, errF := fast.CompileContext(t.Context(), c, cfg)
		if (errN == nil) != (errF == nil) {
			t.Fatalf("seed %d: error divergence: naive=%v indexed=%v", seed, errN, errF)
		}
		if errN != nil {
			continue
		}
		assertTraceEqual(t, resN, resF)
		totalReorders += resF.Reorders
	}
	if totalReorders == 0 {
		t.Error("hoist suite performed no reorders; the excluded-window path is untested")
	}
}
