package baseline

import (
	"testing"

	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// fig4Circuit is the 4-gate program of paper Fig. 4.
func fig4Circuit() *circuit.Circuit {
	c := circuit.New("fig4", 5)
	c.Add2Q("ms", 1, 2) // Gate-A
	c.Add2Q("ms", 2, 3) // Gate-B
	c.Add2Q("ms", 1, 2) // Gate-C
	c.Add2Q("ms", 2, 4) // Gate-D
	return c
}

// fig4Config: 2 traps, total trap capacity 4; T0 = {0,1}, T1 = {2,3,4}
// so EC(T0)=2 and EC(T1)=1 as in the figure.
func fig4Config() (machine.Config, [][]int) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	return cfg, [][]int{{0, 1}, {2, 3, 4}}
}

// TestFigure4BaselinePingPong pins the pathology of Fig. 4: the
// excess-capacity policy shuttles ion 2 back and forth, spending 4 shuttles
// on 4 gates.
func TestFigure4BaselinePingPong(t *testing.T) {
	cfg, placement := fig4Config()
	res, err := New().CompileMappedContext(t.Context(), fig4Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuttles != 4 {
		t.Fatalf("baseline shuttles = %d, want 4 (Fig. 4)", res.Shuttles)
	}
	// Every move is ion 2 ping-ponging between the traps.
	dirs := []string{}
	for _, op := range res.Ops {
		if op.Kind == machine.OpMove {
			if op.Ion != 2 {
				t.Errorf("moved ion %d, want 2", op.Ion)
			}
			dirs = append(dirs, opDir(op))
		}
	}
	want := []string{"T1->T0", "T0->T1", "T1->T0", "T0->T1"}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("move directions = %v, want %v", dirs, want)
		}
	}
}

func opDir(op machine.Op) string {
	return "T" + string(rune('0'+op.Trap)) + "->T" + string(rune('0'+op.Trap2))
}

// TestListing1Semantics pins the three branches of Listing 1.
func TestListing1Semantics(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	c := circuit.New("x", 6)
	c.Add2Q("ms", 0, 3)
	mkCtx := func(placement [][]int) *compiler.Context {
		st, err := machine.NewState(cfg, placement)
		if err != nil {
			t.Fatal(err)
		}
		return &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, 1)}
	}
	d := ExcessCapacityDirection{}

	// EC(T0) < EC(T1): move trap0's ion into trap1.
	ctx := mkCtx([][]int{{0, 1, 2}, {3}})
	ion, dest := d.Choose(ctx, 0, 0, 3, nil)
	if ion != 0 || dest != 1 {
		t.Errorf("EC0<EC1: got ion %d -> T%d, want ion 0 -> T1", ion, dest)
	}

	// EC(T0) == EC(T1): move the gate's first ion.
	ctx = mkCtx([][]int{{0, 1}, {3, 2}})
	ion, dest = d.Choose(ctx, 0, 0, 3, nil)
	if ion != 0 || dest != 1 {
		t.Errorf("tie: got ion %d -> T%d, want ion 0 -> T1 (first ion)", ion, dest)
	}

	// EC(T0) > EC(T1): move trap1's ion into trap0.
	ctx = mkCtx([][]int{{0}, {3, 1, 2}})
	ion, dest = d.Choose(ctx, 0, 0, 3, nil)
	if ion != 3 || dest != 0 {
		t.Errorf("EC0>EC1: got ion %d -> T%d, want ion 3 -> T0", ion, dest)
	}
}

// TestFirstFitRebalanceTrapZeroBias pins Fig. 7's baseline behaviour: the
// search starts from trap 0, so a blocked T4 ships an ion 4 hops to T0 even
// though T3 and T5 are adjacent and free.
func TestFirstFitRebalanceTrapZeroBias(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(6), Capacity: 6, CommCapacity: 0}
	// ECs per Fig. 7: T0=2, T1=1, T2=4, T3=2, T4=0 (full), T5=5.
	placement := [][]int{
		{0, 1, 2, 3},             // 4 ions, EC 2
		{4, 5, 6, 7, 8},          // 5 ions, EC 1
		{9, 10},                  // 2 ions, EC 4
		{11, 12, 13, 14},         // 4 ions, EC 2
		{15, 16, 17, 18, 19, 20}, // 6 ions, EC 0 — the blocker
		{21},                     // 1 ion, EC 5
	}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 22)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c}
	ion, dest, err := FirstFitRebalancer{}.Choose(ctx, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dest != 0 {
		t.Errorf("baseline rebalance dest = T%d, want T0 (trap-0-first search)", dest)
	}
	// Edge ion facing T0 (the low side).
	if ion != 15 {
		t.Errorf("evicted ion = %d, want 15 (low chain edge)", ion)
	}
}

func TestFirstFitRebalanceNoRoom(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 2, CommCapacity: 0}
	st, err := machine.NewState(cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 4)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c}
	if _, _, err := (FirstFitRebalancer{}).Choose(ctx, 0, nil, nil); err == nil {
		t.Fatal("expected no-capacity error")
	}
}

func TestFirstFitRebalanceSkipsProtected(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 3, CommCapacity: 0}
	st, err := machine.NewState(cfg, [][]int{{0, 1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 4)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Protected: []int{2}}
	ion, dest, err := FirstFitRebalancer{}.Choose(ctx, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dest != 1 {
		t.Errorf("dest = T%d", dest)
	}
	// Edge facing T1 is ion 2 (protected): must pick ion 1 instead.
	if ion != 1 {
		t.Errorf("evicted ion = %d, want 1 (ion 2 protected)", ion)
	}
}

func TestBaselineCompilerName(t *testing.T) {
	b := New()
	if b.Direction.Name() != "excess-capacity" {
		t.Errorf("direction name = %q", b.Direction.Name())
	}
	if b.Rebalancer.Name() != "first-fit-from-trap0" {
		t.Errorf("rebalancer name = %q", b.Rebalancer.Name())
	}
	if b.Reorderer != nil {
		t.Error("baseline must not re-order gates")
	}
}

// TestBaselineFullBenchmarkSmoke compiles a small end-to-end circuit through
// Compile (decomposition + greedy mapping) and checks basic sanity.
func TestBaselineFullBenchmarkSmoke(t *testing.T) {
	c := circuit.New("smoke", 12)
	for i := 0; i < 12; i++ {
		c.Add1Q("h", i)
	}
	for i := 0; i+1 < 12; i++ {
		c.Add2Q("cx", i, i+1)
	}
	for i := 0; i < 12; i += 3 {
		c.Add2Q("cx", i, (i+6)%12)
	}
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 6, CommCapacity: 2}
	res, err := New().CompileContext(t.Context(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gates2Q != c.Count2Q() {
		t.Errorf("2Q gates executed = %d, want %d", res.Gates2Q, c.Count2Q())
	}
	if res.CompileTime <= 0 {
		t.Error("compile time not recorded")
	}
	if res.DirectionPolicy != "excess-capacity" || res.ReorderPolicy != "" {
		t.Errorf("policy names: %q / %q", res.DirectionPolicy, res.ReorderPolicy)
	}
}
