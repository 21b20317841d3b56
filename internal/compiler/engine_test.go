package compiler

import (
	"strings"
	"testing"

	"muzzle/internal/circuit"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// farFitRebalancer always evicts toward the highest-index trap with room,
// forcing hole shifts across saturated corridors.
type farFitRebalancer struct{}

func (farFitRebalancer) Name() string { return "far-fit" }
func (farFitRebalancer) Choose(ctx *Context, blocked int, remaining []int, avoid []int) (int, int, error) {
	st := ctx.State
	for t := st.NumTraps() - 1; t >= 0; t-- {
		if t != blocked && st.ExcessCapacity(t) > 0 {
			return st.Chain(blocked)[0], t, nil
		}
	}
	return -1, -1, errNoRoom
}

// TestHoleShiftAcrossSaturatedCorridor reproduces the saturated-corridor
// scenario that defeats naive recursive eviction: T0..T2 full, space only at
// the far end. The hole shift must resolve it with one ion moved per
// corridor trap and no livelock.
func TestHoleShiftAcrossSaturatedCorridor(t *testing.T) {
	// L4, capacity 3: T0=[0 1 2] T1=[3 4 5] T2=[6 7 8] T3=[9] (EC 2).
	// Gate (0, 3): direction moves ion 0 into T1 (full). Flip unavailable
	// (T0 full too) -> rebalance T1. farFit sends the victim toward T3;
	// the corridor T2 is full, so a hole shift must move one T2 ion to T3
	// first.
	c := circuit.New("x", 10)
	c.Add2Q("ms", 0, 3)
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 3, CommCapacity: 0}
	comp := &Compiler{Direction: firstIonDirection{}, Rebalancer: farFitRebalancer{}}
	res, err := comp.CompileMappedContext(t.Context(), c, cfg, [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Fatal("expected a rebalance")
	}
	// Invariants already checked by CompileMapped; verify the gate landed.
	last := res.Ops[len(res.Ops)-1]
	if last.Kind != machine.OpGate2Q {
		t.Fatalf("final op = %v", last)
	}
}

// TestHoleShiftSkipsProtectedIons verifies the shift never grabs the active
// gate's operands when alternatives exist.
func TestHoleShiftSkipsProtectedIons(t *testing.T) {
	// Gate (0, 5): ion 5 lives in the middle of saturated T1; the shift
	// through T1 must move some other ion.
	c := circuit.New("x", 8)
	c.Add2Q("ms", 0, 5)
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 3, CommCapacity: 0}
	comp := &Compiler{Direction: firstIonDirection{}, Rebalancer: farFitRebalancer{}}
	// T0=[0 1 2] full, T1=[4 5 6] full, T2=[7] roomy.
	res, err := comp.CompileMappedContext(t.Context(), c, cfg, [][]int{{0, 1, 2}, {4, 5, 6}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// Ion 5 must end co-located with ion 0; the trace must not move ion 5
	// out of whatever trap hosts the gate before the gate runs.
	var gateOp machine.Op
	for _, op := range res.Ops {
		if op.Kind == machine.OpGate2Q {
			gateOp = op
		}
	}
	if gateOp.Name == machine.NameNone {
		t.Fatal("gate never executed")
	}
}

// TestRouteBudgetError verifies the engine reports a clean error when the
// rebalance budget is exhausted rather than spinning.
func TestRouteBudgetError(t *testing.T) {
	c := circuit.New("x", 8)
	c.Add2Q("ms", 0, 4)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	comp := &Compiler{Direction: firstIonDirection{}, Rebalancer: lowestFitRebalancer{}, MaxRebalanceDepth: 1}
	// Both traps full: flip impossible, rebalance impossible (no room
	// anywhere) -> must error mentioning the block.
	_, err := comp.CompileMappedContext(t.Context(), c, cfg, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "traffic block") && !strings.Contains(err.Error(), "budget") && !strings.Contains(err.Error(), "co-locate") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestShiftIonPicksFacingEdge checks shiftIon's direction convention and
// protected-skipping.
func TestShiftIonPicksFacingEdge(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 0}
	st, err := machine.NewState(cfg, [][]int{{0, 1, 2}, {3}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{st: st, ctx: &Context{State: st}}
	// Moving right (to trap 1 > trap 0): pick the high-end ion (2).
	if got := e.shiftIon(0, 1); got != 2 {
		t.Errorf("shiftIon right = %d, want 2", got)
	}
	// With ion 2 protected: pick the next one inward (1).
	e.ctx.Protected = []int{2}
	if got := e.shiftIon(0, 1); got != 1 {
		t.Errorf("shiftIon protected = %d, want 1", got)
	}
	// All protected: fall back to the facing edge.
	e.ctx.Protected = []int{0, 1, 2}
	if got := e.shiftIon(0, 1); got != 2 {
		t.Errorf("shiftIon all-protected = %d, want 2 (edge fallback)", got)
	}
	// Moving left from trap 2 toward trap 1: low-end ion.
	e.ctx.Protected = nil
	if got := e.shiftIon(2, 1); got != 4 {
		t.Errorf("shiftIon left = %d, want 4", got)
	}
}

// TestCompileOnGridAndRing exercises the engine on non-linear topologies.
func TestCompileOnGridAndRing(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Grid(2, 3), topo.Ring(6)} {
		cfg := machine.Config{Topology: tp, Capacity: 5, CommCapacity: 1}
		c := circuit.New("t", 18)
		for i := 0; i < 18; i++ {
			for j := i + 5; j < 18; j += 7 {
				c.Add2Q("ms", i, j)
			}
		}
		res, err := testCompiler().CompileContext(t.Context(), c, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		if res.Gates2Q != c.Count2Q() {
			t.Errorf("%s: executed %d gates, want %d", tp.Name(), res.Gates2Q, c.Count2Q())
		}
	}
}

// TestCompileTimeRecorded ensures Table III's metric is populated.
func TestCompileTimeRecorded(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	res, err := testCompiler().CompileMappedContext(t.Context(), c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompileTime <= 0 {
		t.Error("CompileTime not recorded")
	}
}
