package verify

import (
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/bench"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/core"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// l3 returns a 3-trap linear machine with small capacities, the workhorse
// of the hand-built invalid-stream tests.
func l3(capacity, comm int) machine.Config {
	return machine.Config{Topology: topo.Linear(3), Capacity: capacity, CommCapacity: comm}
}

// nativeCirc builds a small native circuit: ms q0,q1; r q2; measure q0.
func nativeCirc() *circuit.Circuit {
	c := circuit.New("v", 3)
	c.Add2Q("ms", 0, 1, 0.5)
	c.Add1Q("r", 2, 0.1, 0.2)
	c.AddMeasure(0, 0)
	return c
}

// placement3 spreads ions 0,1,2 over the three traps.
func placement3() [][]int { return [][]int{{0}, {1}, {2}} }

// gate1q builds a 1Q/measure op.
func gate1q(name string, ion, trap, gate int) machine.Op {
	kind := machine.OpGate1Q
	if name == "measure" {
		kind = machine.OpMeasure
	}
	return machine.Op{Kind: kind, Name: machine.LookupGateName(name), Ion: int32(ion), Ion2: -1, Trap: int32(trap), Trap2: -1, Gate: int32(gate)}
}

func gate2q(a, b, trap, gate int) machine.Op {
	return machine.Op{Kind: machine.OpGate2Q, Name: machine.NameMS, Ion: int32(a), Ion2: int32(b), Trap: int32(trap), Trap2: -1, Gate: int32(gate)}
}

func splitOp(ion, trap int) machine.Op {
	return machine.Op{Kind: machine.OpSplit, Ion: int32(ion), Ion2: -1, Trap: int32(trap), Trap2: -1, Gate: -1}
}

func moveOp(ion, from, to int) machine.Op {
	return machine.Op{Kind: machine.OpMove, Ion: int32(ion), Ion2: -1, Trap: int32(from), Trap2: int32(to), Gate: -1}
}

func mergeOp(ion, trap int) machine.Op {
	return machine.Op{Kind: machine.OpMerge, Ion: int32(ion), Ion2: -1, Trap: int32(trap), Trap2: -1, Gate: -1}
}

// hop is the legal SPLIT MOVE MERGE sequence for one adjacent transfer.
func hop(ion, from, to int) []machine.Op {
	return []machine.Op{splitOp(ion, from), moveOp(ion, from, to), mergeOp(ion, to)}
}

// wantKind asserts exactly the given kinds appear among the violations.
func wantKind(t *testing.T, vs []Violation, kind Kind) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("expected a %s violation, got none", kind)
	}
	for _, v := range vs {
		if v.Kind == kind {
			return
		}
	}
	t.Fatalf("expected a %s violation, got %v", kind, vs)
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Fatalf("expected a clean replay, got %d violations: %v", len(vs), vs)
	}
}

func TestReplayCleanHandBuilt(t *testing.T) {
	c := nativeCirc()
	// Bring ion 1 to trap 0, execute ms, r, measure.
	ops := append(hop(1, 1, 0),
		gate2q(0, 1, 0, 0),
		gate1q("r", 2, 2, 1),
		gate1q("measure", 0, 0, 2),
	)
	wantClean(t, Replay(c, l3(3, 1), placement3(), ops))
}

// A merge from the lower-numbered trap lands at the low end of a chain that
// has room without allocating: the chain shifts in place. The ion hops
// T0 -> T1 (low-side merge) and back, so every run replays the same ops.
func TestReplayMergeInPlace(t *testing.T) {
	c := nativeCirc()
	r := newReplayer(c, l3(3, 1), [][]int{{0}, {1, 2}, {}})
	ops := append(hop(0, 0, 1), hop(0, 1, 0)...)
	front := -1
	allocs := testing.AllocsPerRun(50, func() {
		for i, op := range ops[:3] {
			r.step(i, &op)
		}
		front = r.chains[1][0]
		for i, op := range ops[3:] {
			r.step(3+i, &op)
		}
	})
	wantClean(t, r.violations)
	if front != 0 {
		t.Errorf("ion merged from the low side sits behind ion %d, want at position 0", front)
	}
	if allocs != 0 {
		t.Errorf("replaying a low-side merge allocated %.0f times per run, want 0", allocs)
	}
}

func TestReplayBadPlacement(t *testing.T) {
	c := nativeCirc()
	cfg := l3(3, 1)
	cases := map[string][][]int{
		"duplicate ion":   {{0, 0}, {1}, {2}},
		"wrong trapcount": {{0}, {1, 2}},
		"overload":        {{0, 1, 2}, {}, {}}, // MaxInitialLoad = 2
		"sparse ids":      {{0}, {1}, {5}},
	}
	for name, placement := range cases {
		t.Run(name, func(t *testing.T) {
			wantKind(t, Replay(c, cfg, placement, nil), KindPlacement)
		})
	}
	t.Run("too few ions", func(t *testing.T) {
		wantKind(t, Replay(c, cfg, [][]int{{0}, {1}, {}}, nil), KindPlacement)
	})
}

func TestReplayBadEdge(t *testing.T) {
	c := nativeCirc()
	ops := []machine.Op{splitOp(1, 1), moveOp(1, 1, 1+2)} // T1 -> T3 is out of range
	wantKind(t, Replay(c, l3(3, 1), placement3(), ops), KindPresence)

	// T0 -> T2 skips the middle trap: no such edge on a line.
	ops = []machine.Op{splitOp(0, 0), moveOp(0, 0, 2)}
	wantKind(t, Replay(c, l3(3, 1), placement3(), ops), KindEdge)
}

func TestReplayCapacityExceeded(t *testing.T) {
	c := nativeCirc()
	cfg := l3(2, 1) // capacity 2: trap 0 fills after one transfer
	ops := append(hop(1, 1, 0), hop(2, 2, 1)...)
	ops = append(ops, hop(2, 1, 0)...) // third ion into the full trap 0
	vs := Replay(c, cfg, placement3(), ops)
	wantKind(t, vs, KindCapacity)
	// Regression: an over-full final chain must not corrupt the ion census
	// into spurious "ion lost" conservation violations — every ion is
	// accounted for here, just over-packed.
	for _, v := range vs {
		if v.Kind == KindConservation {
			t.Fatalf("over-capacity chain produced a spurious conservation violation: %v", v)
		}
	}
}

func TestReplayPresence(t *testing.T) {
	c := nativeCirc()
	// r on ion 2 recorded in the wrong trap.
	wantKind(t, Replay(c, l3(3, 1), placement3(),
		[]machine.Op{gate1q("r", 2, 0, 1)}), KindPresence)
	// Gate on an ion that is mid-shuttle.
	ops := []machine.Op{splitOp(2, 2), gate1q("r", 2, 2, 1)}
	wantKind(t, Replay(c, l3(3, 1), placement3(), ops), KindPresence)
}

func TestReplayNotCoLocated(t *testing.T) {
	c := nativeCirc()
	// ms on ions 0 and 1 without shuttling them together.
	wantKind(t, Replay(c, l3(3, 1), placement3(),
		[]machine.Op{gate2q(0, 1, 0, 0)}), KindCoLocation)
}

func TestReplayProtocol(t *testing.T) {
	c := nativeCirc()
	cfg := l3(3, 1)
	t.Run("move without split", func(t *testing.T) {
		wantKind(t, Replay(c, cfg, placement3(), []machine.Op{moveOp(1, 1, 0)}), KindProtocol)
	})
	t.Run("merge without move", func(t *testing.T) {
		wantKind(t, Replay(c, cfg, placement3(), []machine.Op{mergeOp(1, 0)}), KindProtocol)
	})
	t.Run("split mid-chain", func(t *testing.T) {
		// A 2-ion chain has no middle; use 3 ions in one trap of capacity 4.
		cfg := l3(4, 1)
		placement := [][]int{{0, 1, 2}, {}, {}}
		wantKind(t, Replay(c, cfg, placement, []machine.Op{splitOp(1, 0)}), KindProtocol)
	})
	t.Run("split from wrong end", func(t *testing.T) {
		// Ion 0 sits at the low end of T0's chain; moving it to T1 (higher)
		// requires a split from the high end.
		cfg := l3(4, 1)
		placement := [][]int{{0, 1}, {2}, {}}
		ops := []machine.Op{splitOp(0, 0), moveOp(0, 0, 1)}
		wantKind(t, Replay(c, cfg, placement, ops), KindProtocol)
	})
	t.Run("swap non-adjacent", func(t *testing.T) {
		cfg := l3(4, 1)
		placement := [][]int{{0, 1, 2}, {}, {}}
		ops := []machine.Op{{Kind: machine.OpSwap, Ion: 0, Ion2: 2, Trap: 0, Trap2: -1, Gate: -1}}
		wantKind(t, Replay(c, cfg, placement, ops), KindProtocol)
	})
}

func TestReplayOrderViolations(t *testing.T) {
	// Two dependent 1Q gates on the same qubit.
	c := circuit.New("order", 1)
	c.Add1Q("r", 0, 0.1)
	c.Add1Q("rz", 0, 0.2)
	cfg := machine.Config{Topology: topo.Linear(1), Capacity: 3, CommCapacity: 1}
	placement := [][]int{{0}}

	t.Run("before predecessor", func(t *testing.T) {
		ops := []machine.Op{gate1q("rz", 0, 0, 1), gate1q("r", 0, 0, 0)}
		wantKind(t, Replay(c, cfg, placement, ops), KindOrder)
	})
	t.Run("executed twice", func(t *testing.T) {
		ops := []machine.Op{gate1q("r", 0, 0, 0), gate1q("r", 0, 0, 0), gate1q("rz", 0, 0, 1)}
		wantKind(t, Replay(c, cfg, placement, ops), KindOrder)
	})
	t.Run("never executed", func(t *testing.T) {
		ops := []machine.Op{gate1q("r", 0, 0, 0)}
		wantKind(t, Replay(c, cfg, placement, ops), KindOrder)
	})
	t.Run("name mismatch", func(t *testing.T) {
		ops := []machine.Op{gate1q("rz", 0, 0, 0), gate1q("rz", 0, 0, 1)}
		wantKind(t, Replay(c, cfg, placement, ops), KindOrder)
	})
	t.Run("gate index out of range", func(t *testing.T) {
		ops := []machine.Op{gate1q("r", 0, 0, 7), gate1q("rz", 0, 0, 1)}
		wantKind(t, Replay(c, cfg, placement, ops), KindOrder)
	})
}

func TestReplayOperandAndWiring(t *testing.T) {
	// Two measurements into distinct classical bits: executing gate 1's op
	// with gate 0's qubit breaks the recorded wiring.
	c := circuit.New("wiring", 2)
	c.AddMeasure(0, 1)
	c.AddMeasure(1, 0)
	cfg := l3(3, 1)
	placement := [][]int{{0, 1}, {}, {}}

	ops := []machine.Op{gate1q("measure", 0, 0, 0), gate1q("measure", 0, 0, 1)}
	wantKind(t, Replay(c, cfg, placement, ops), KindOrder)

	// Correct wiring is clean.
	ops = []machine.Op{gate1q("measure", 0, 0, 0), gate1q("measure", 1, 0, 1)}
	wantClean(t, Replay(c, cfg, placement, ops))
}

func TestReplayBarrierOrdering(t *testing.T) {
	// r q0; barrier q0,q1; r q1 — the barrier forces gate 0 before gate 2
	// even though they touch different qubits.
	c := circuit.New("barrier", 2)
	c.Add1Q("r", 0, 0.1)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 1}})
	c.Add1Q("r", 1, 0.2)
	cfg := l3(3, 1)
	placement := [][]int{{0, 1}, {}, {}}

	good := []machine.Op{gate1q("r", 0, 0, 0), gate1q("r", 1, 0, 2)}
	wantClean(t, Replay(c, cfg, placement, good))

	bad := []machine.Op{gate1q("r", 1, 0, 2), gate1q("r", 0, 0, 0)}
	wantKind(t, Replay(c, cfg, placement, bad), KindOrder)
}

func TestReplayConservation(t *testing.T) {
	c := nativeCirc()
	// Ion split and moved but never merged.
	stream := []machine.Op{splitOp(1, 1), moveOp(1, 1, 0),
		gate1q("r", 2, 2, 1)}
	wantKind(t, Replay(c, l3(3, 1), placement3(), stream), KindConservation)

	// Ion split and abandoned.
	stream = []machine.Op{splitOp(1, 1)}
	wantKind(t, Replay(c, l3(3, 1), placement3(), stream), KindConservation)
}

func TestResultMetadataChecks(t *testing.T) {
	comp := core.New()
	res, err := comp.CompileContext(t.Context(), bench.QFT(8), machine.PaperL6())
	if err != nil {
		t.Fatal(err)
	}
	wantClean(t, Result(res))

	t.Run("counter mismatch", func(t *testing.T) {
		bad := *res
		bad.Shuttles++
		wantKind(t, Result(&bad), KindMetadata)
	})
	t.Run("order trace mismatch", func(t *testing.T) {
		bad := *res
		bad.Order = append([]int(nil), res.Order...)
		// Swapping two independent entries keeps the order DAG-valid in
		// most cases but desynchronizes it from the trace; swapping the
		// first two physical gates always breaks the trace match.
		bad.Order[0], bad.Order[1] = bad.Order[1], bad.Order[0]
		wantKind(t, Result(&bad), KindMetadata)
	})
	t.Run("missing order", func(t *testing.T) {
		bad := *res
		bad.Order = nil
		wantKind(t, Result(&bad), KindMetadata)
	})
	t.Run("summary only", func(t *testing.T) {
		bad := *res
		bad.InitialPlacement = nil
		bad.Ops = nil
		wantKind(t, Result(&bad), KindMetadata)
	})
	t.Run("tampered trace", func(t *testing.T) {
		bad := *res
		// Drop the final op (a gate or merge): execution coverage or the
		// shuttle protocol breaks either way.
		bad.Ops = res.Ops[:len(res.Ops)-1]
		if vs := Result(&bad); len(vs) == 0 {
			t.Fatal("truncated trace verified clean")
		}
	})
}

func TestReplayNeverPanics(t *testing.T) {
	c := nativeCirc()
	cfg := l3(3, 1)
	// A stream of structurally hostile ops: out-of-range ids everywhere.
	hostile := []machine.Op{
		{Kind: machine.OpMove, Ion: -4, Trap: -1, Trap2: 99, Gate: -1},
		{Kind: machine.OpGate2Q, Ion: 99, Ion2: -1, Trap: 2, Gate: 100, Name: machine.NameMS},
		{Kind: machine.OpSwap, Ion: 0, Ion2: 0, Trap: 0, Gate: -1},
		{Kind: machine.OpKind(42), Ion: 0, Trap: 0},
		{Kind: machine.OpMerge, Ion: 1, Trap: 5, Gate: -1},
		{Kind: machine.OpSplit, Ion: 2, Trap: 2, Gate: -1},
		{Kind: machine.OpSplit, Ion: 2, Trap: 2, Gate: -1},
		// Kind/arity mismatches: a 2Q op executing the 1Q source gate 1 and
		// a 1Q op executing the 2Q source gate 0 (regression: the former
		// indexed g.Qubits[1] out of range).
		{Kind: machine.OpGate2Q, Ion: 0, Ion2: 1, Trap: 0, Gate: 1, Name: machine.NameMS},
		{Kind: machine.OpGate1Q, Ion: 2, Ion2: -1, Trap: 2, Gate: 0, Name: machine.NameR},
		// A name code outside the native table.
		{Kind: machine.OpGate1Q, Ion: 2, Ion2: -1, Trap: 2, Gate: 1, Name: machine.GateName(200)},
	}
	if vs := Replay(c, cfg, placement3(), hostile); len(vs) == 0 {
		t.Fatal("hostile stream verified clean")
	}
	if vs := Replay(nil, cfg, nil, nil); len(vs) == 0 {
		t.Fatal("nil circuit verified clean")
	}
	if vs := Replay(c, machine.Config{}, nil, nil); len(vs) == 0 {
		t.Fatal("nil topology verified clean")
	}
}

func TestReplayViolationCap(t *testing.T) {
	c := nativeCirc()
	var hostile []machine.Op
	for i := 0; i < 200; i++ {
		hostile = append(hostile, moveOp(1, 1, 0)) // move without split, 200 times
	}
	vs := Replay(c, l3(3, 1), placement3(), hostile)
	if len(vs) > maxViolations+1 {
		t.Fatalf("violation report not capped: %d entries", len(vs))
	}
}

// compilers returns the two reference compilers under test.
func compilers() map[string]*compiler.Compiler {
	return map[string]*compiler.Compiler{
		"baseline":  baseline.New(),
		"optimized": core.New(),
	}
}

// TestPaperSuiteZeroViolations runs both compilers over the paper's five
// NISQ benchmarks on the paper machine and asserts every schedule is legal.
func TestPaperSuiteZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("paper suite compile in -short mode")
	}
	for _, spec := range bench.Catalog() {
		c := spec.Build()
		for name, comp := range compilers() {
			res, err := comp.CompileContext(t.Context(), c, machine.PaperL6())
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, name, err)
			}
			if vs := Result(res); len(vs) != 0 {
				t.Errorf("%s/%s: %d violations: %v", spec.Name, name, len(vs), vs[:min(len(vs), 5)])
			}
		}
	}
}

// TestTopologiesZeroViolations sweeps randomized circuits over linear,
// ring, grid, and custom topologies with tight capacities (to exercise
// re-balancing and hole-shifts) on both compilers.
func TestTopologiesZeroViolations(t *testing.T) {
	topos := map[string]*topo.Topology{
		"L6":   topo.Linear(6),
		"L3":   topo.Linear(3),
		"R6":   topo.Ring(6),
		"G2x3": topo.Grid(2, 3),
	}
	if custom, err := topo.New("star5", 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}); err != nil {
		t.Fatal(err)
	} else {
		topos["star5"] = custom
	}
	for tname, tp := range topos {
		for _, sz := range []struct{ capacity, comm int }{{6, 2}, {4, 1}} {
			cfg := machine.Config{Topology: tp, Capacity: sz.capacity, CommCapacity: sz.comm}
			maxIons := tp.NumTraps() * cfg.MaxInitialLoad()
			for seed := int64(1); seed <= 4; seed++ {
				qubits := maxIons - 1 - int(seed)%3
				if qubits < 4 {
					qubits = 4
				}
				circ := bench.Random(qubits, 40, seed)
				for cname, comp := range compilers() {
					res, err := comp.CompileContext(t.Context(), circ, cfg)
					if err != nil {
						t.Fatalf("%s cap=%d %s seed=%d: %v", tname, sz.capacity, cname, seed, err)
					}
					if vs := Result(res); len(vs) != 0 {
						t.Errorf("%s cap=%d %s seed=%d: %d violations: %v",
							tname, sz.capacity, cname, seed, len(vs), vs[:min(len(vs), 5)])
					}
				}
			}
		}
	}
}
