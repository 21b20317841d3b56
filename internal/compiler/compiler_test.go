package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"muzzle/internal/circuit"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// ---- test policies -------------------------------------------------------

// firstIonDirection always moves the gate's first ion to the second's trap.
type firstIonDirection struct{}

func (firstIonDirection) Name() string { return "first-ion" }
func (firstIonDirection) Choose(ctx *Context, gateIdx, qa, qb int, remaining []int) (int, int) {
	return qa, ctx.State.IonTrap(qb)
}

// lowestFitRebalancer evicts the chain-head ion to the lowest-index trap
// with room.
type lowestFitRebalancer struct{}

func (lowestFitRebalancer) Name() string { return "lowest-fit" }
func (lowestFitRebalancer) Choose(ctx *Context, blocked int, remaining []int, avoid []int) (int, int, error) {
	st := ctx.State
	for t := 0; t < st.NumTraps(); t++ {
		if t != blocked && st.ExcessCapacity(t) > 0 {
			return st.Chain(blocked)[0], t, nil
		}
	}
	return -1, -1, errNoRoom
}

type noRoomError struct{}

func (noRoomError) Error() string { return "no room anywhere" }

var errNoRoom = noRoomError{}

// badIonDirection returns an ion that is not a gate operand.
type badIonDirection struct{}

func (badIonDirection) Name() string { return "bad-ion" }
func (badIonDirection) Choose(ctx *Context, gateIdx, qa, qb int, remaining []int) (int, int) {
	return 99, ctx.State.IonTrap(qb)
}

func testCompiler() *Compiler {
	return &Compiler{Direction: firstIonDirection{}, Rebalancer: lowestFitRebalancer{}}
}

// ---- GreedyPlacement -----------------------------------------------------

func TestGreedyPlacementClustersInteractingQubits(t *testing.T) {
	// Two independent cliques must land in (at most) one trap each.
	c := circuit.New("cliques", 8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			c.Add2Q("ms", i, j)
			c.Add2Q("ms", i+4, j+4)
		}
	}
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 6, CommCapacity: 2}
	placement, err := GreedyPlacement(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trapOf := map[int]int{}
	for tr, chain := range placement {
		for _, q := range chain {
			trapOf[q] = tr
		}
	}
	for i := 1; i < 4; i++ {
		if trapOf[i] != trapOf[0] {
			t.Errorf("clique A split: qubit %d in trap %d, qubit 0 in trap %d", i, trapOf[i], trapOf[0])
		}
		if trapOf[i+4] != trapOf[4] {
			t.Errorf("clique B split: qubit %d", i+4)
		}
	}
}

func TestGreedyPlacementRespectsInitialLoad(t *testing.T) {
	c := circuit.New("wide", 9)
	for i := 0; i+1 < 9; i++ {
		c.Add2Q("ms", i, i+1)
	}
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 1}
	placement, err := GreedyPlacement(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for tr, chain := range placement {
		if len(chain) > cfg.MaxInitialLoad() {
			t.Errorf("trap %d overloaded: %d ions", tr, len(chain))
		}
	}
}

func TestGreedyPlacementTooManyQubits(t *testing.T) {
	c := circuit.New("huge", 100)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	if _, err := GreedyPlacement(c, cfg); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestGreedyPlacementBadConfig(t *testing.T) {
	c := circuit.New("x", 2)
	if _, err := GreedyPlacement(c, machine.Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestGreedyPlacementCoversAllQubits(t *testing.T) {
	c := circuit.New("sparse", 10) // includes gate-less qubits
	c.Add2Q("ms", 0, 9)
	cfg := machine.Config{Topology: topo.Linear(4), Capacity: 4, CommCapacity: 1}
	placement, err := GreedyPlacement(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, chain := range placement {
		for _, q := range chain {
			if seen[q] {
				t.Fatalf("qubit %d placed twice", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("placed %d of 10 qubits", len(seen))
	}
}

// ---- engine --------------------------------------------------------------

func TestCompileSimpleCrossTrapGate(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	res, err := testCompiler().CompileMapped(c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuttles != 1 {
		t.Errorf("shuttles = %d, want 1", res.Shuttles)
	}
	if res.Gates2Q != 1 {
		t.Errorf("gates2q = %d", res.Gates2Q)
	}
	// firstIonDirection moves ion 0 into trap of ion 2.
	lastOp := res.Ops[len(res.Ops)-1]
	if lastOp.Kind != machine.OpGate2Q || lastOp.Trap != 1 {
		t.Errorf("final op = %v, want gate in T1", lastOp)
	}
}

func TestCompileCoLocatedNeedsNoShuttle(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 1)
	c.Add1Q("r", 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	res, err := testCompiler().CompileMapped(c, cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuttles != 0 {
		t.Errorf("shuttles = %d, want 0", res.Shuttles)
	}
	if res.Gates1Q != 1 {
		t.Errorf("gates1q = %d", res.Gates1Q)
	}
}

func TestCompileTriggersRebalance(t *testing.T) {
	// Both gate traps full: neither direction is routable, so the engine
	// must evict an ion (re-balance) before co-locating.
	c := circuit.New("x", 9)
	c.Add2Q("ms", 0, 2) // 0 in T0 (full), 2 in T1 (full)
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 0}
	res, err := testCompiler().CompileMapped(c, cfg, [][]int{{0, 5, 6, 7}, {2, 3, 4, 8}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Error("expected a rebalance")
	}
	if res.Shuttles < 2 {
		t.Errorf("shuttles = %d, want >= 2 (evict + route)", res.Shuttles)
	}
}

func TestCompileFlipsDirectionWhenDestFull(t *testing.T) {
	// The favored destination is full but the source trap has room: the
	// engine flips the direction instead of evicting a bystander — one
	// shuttle, no rebalance.
	c := circuit.New("x", 6)
	c.Add2Q("ms", 0, 2) // firstIonDirection favors moving 0 into T1 (full)
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 0}
	res, err := testCompiler().CompileMapped(c, cfg, [][]int{{0}, {2, 3, 4, 5}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances != 0 {
		t.Errorf("rebalances = %d, want 0 (direction flip should avoid eviction)", res.Rebalances)
	}
	if res.Shuttles != 1 {
		t.Errorf("shuttles = %d, want 1", res.Shuttles)
	}
	// Ion 2 must have moved into T0 (the flip).
	finalGate := res.Ops[len(res.Ops)-1]
	if finalGate.Kind != machine.OpGate2Q || finalGate.Trap != 0 {
		t.Errorf("final gate = %v, want execution in T0", finalGate)
	}
}

func TestCompileDeadlockErrors(t *testing.T) {
	// Every trap full: rebalancing is impossible and the compile must fail
	// with an error rather than loop.
	c := circuit.New("x", 8)
	c.Add2Q("ms", 0, 4)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	_, err := testCompiler().CompileMapped(c, cfg, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err == nil {
		t.Fatal("deadlocked compile succeeded")
	}
}

func TestCompileRejectsNonNative(t *testing.T) {
	c := circuit.New("x", 2)
	c.Add2Q("cx", 0, 1)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	if _, err := testCompiler().CompileMapped(c, cfg, [][]int{{0}, {1}}); err == nil {
		t.Fatal("non-native circuit accepted by CompileMapped")
	}
	// Compile (with decomposition) must handle it.
	if _, err := testCompiler().Compile(c, cfg); err != nil {
		t.Fatalf("Compile failed: %v", err)
	}
}

func TestCompileRejectsMissingPolicies(t *testing.T) {
	c := circuit.New("x", 2)
	c.Add2Q("ms", 0, 1)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	bad := &Compiler{}
	if _, err := bad.CompileMapped(c, cfg, [][]int{{0}, {1}}); err == nil {
		t.Fatal("compiler without policies accepted")
	}
}

func TestCompileValidatesDirectionDecision(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 2)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	bad := &Compiler{Direction: badIonDirection{}, Rebalancer: lowestFitRebalancer{}}
	if _, err := bad.CompileMapped(c, cfg, [][]int{{0, 1}, {2, 3}}); err == nil {
		t.Fatal("bad direction decision accepted")
	}
}

func TestCompilePlacementTooSmall(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 3)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	if _, err := testCompiler().CompileMapped(c, cfg, [][]int{{0}, {1}}); err == nil {
		t.Fatal("undersized placement accepted")
	}
}

func TestCompileMeasureAndBarrier(t *testing.T) {
	c := circuit.New("x", 2)
	c.Add2Q("ms", 0, 1)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 1}})
	c.MustAppend(circuit.Gate{Name: "measure", Qubits: []int{0}})
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	res, err := testCompiler().CompileMapped(c, cfg, [][]int{{0, 1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 3 {
		t.Errorf("order = %v", res.Order)
	}
}

func TestRemaining2Q(t *testing.T) {
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 1) // 0
	c.Add1Q("r", 2)     // 1
	c.Add2Q("ms", 2, 3) // 2
	c.Add2Q("ms", 0, 2) // 3
	ctx := &Context{Circ: c, Executed: make([]bool, 4)}
	order := []int{0, 1, 2, 3}
	got := Remaining2Q(ctx, order, 0, 10, -1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Remaining2Q = %v, want [2 3]", got)
	}
	// Exclusion and executed filtering.
	ctx.Executed[2] = true
	got = Remaining2Q(ctx, order, 0, 10, 3)
	if len(got) != 0 {
		t.Errorf("Remaining2Q = %v, want []", got)
	}
	// Cap.
	ctx.Executed[2] = false
	got = Remaining2Q(ctx, order, 0, 1, -1)
	if len(got) != 1 {
		t.Errorf("capped Remaining2Q = %v", got)
	}
}

func TestHoist(t *testing.T) {
	order := []int{10, 11, 12, 13, 14}
	hoist(order, 1, 3)
	want := []int{10, 13, 11, 12, 14}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hoist = %v, want %v", order, want)
		}
	}
}

// randomNative builds a random MS+R circuit.
func randomNative(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("rand", n)
	for i := 0; i < gates; i++ {
		if rng.Intn(4) == 0 {
			c.Add1Q("r", rng.Intn(n), 1, 0)
			continue
		}
		a, b := rng.Intn(n), rng.Intn(n)
		for b == a {
			b = rng.Intn(n)
		}
		c.Add2Q("ms", a, b)
	}
	return c
}

// Property: compilation always produces a dependency-valid order, every 2Q
// gate executes co-located, all gates execute exactly once, and machine
// invariants hold.
func TestQuickCompileCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		c := randomNative(rng, n, 20+rng.Intn(60))
		cfg := machine.Config{Topology: topo.Linear(3), Capacity: 8, CommCapacity: 2}
		res, err := testCompiler().Compile(c, cfg)
		if err != nil {
			return false
		}
		// Order validity against the DAG.
		if dag.Build(res.Circ).ValidOrder(res.Order) != nil {
			return false
		}
		// Replay: every 2Q gate co-located at its execution point.
		st, err := machine.NewState(cfg, res.InitialPlacement)
		if err != nil {
			return false
		}
		gateSeen := make(map[int32]bool)
		for _, op := range res.Ops {
			switch op.Kind {
			case machine.OpMove:
				// Track by teleport (merge applies placement).
			case machine.OpMerge:
				if st.Teleport(int(op.Ion), int(op.Trap)) != nil {
					return false
				}
			case machine.OpGate2Q:
				if st.IonTrap(int(op.Ion)) != st.IonTrap(int(op.Ion2)) {
					return false
				}
				if gateSeen[op.Gate] {
					return false
				}
				gateSeen[op.Gate] = true
			case machine.OpGate1Q, machine.OpMeasure:
				if gateSeen[op.Gate] {
					return false
				}
				gateSeen[op.Gate] = true
			}
		}
		want2q := res.Circ.Count2Q()
		if res.Gates2Q != want2q {
			return false
		}
		return res.Shuttles >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
