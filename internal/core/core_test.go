package core

import (
	"strings"
	"testing"

	"muzzle/internal/baseline"
	"muzzle/internal/circuit"
	"muzzle/internal/compiler"
	"muzzle/internal/dag"
	"muzzle/internal/machine"
	"muzzle/internal/topo"
)

// fig4Circuit is the 4-gate program of paper Fig. 4 / Table I.
func fig4Circuit() *circuit.Circuit {
	c := circuit.New("fig4", 5)
	c.Add2Q("ms", 1, 2) // Gate-A
	c.Add2Q("ms", 2, 3) // Gate-B
	c.Add2Q("ms", 1, 2) // Gate-C
	c.Add2Q("ms", 2, 4) // Gate-D
	return c
}

func fig4Setup(t *testing.T) (*compiler.Context, machine.Config, [][]int) {
	t.Helper()
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	placement := [][]int{{0, 1}, {2, 3, 4}}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	c := fig4Circuit()
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, 4)}
	return ctx, cfg, placement
}

// TestTableIMoveScores pins the exact move-score computation of paper
// Table I: for Gate-A (ions 1 and 2), ionA(A->B) = 3 and ionB(B->A) = 1.
func TestTableIMoveScores(t *testing.T) {
	ctx, _, _ := fig4Setup(t)
	d := FutureOpsDirection{}
	remaining := []int{1, 2, 3} // Gate-B, Gate-C, Gate-D
	scoreAB, scoreBA := d.MoveScores(ctx, 1, 2, remaining)
	if scoreAB != 3 {
		t.Errorf("ionA(A->B) move score = %d, want 3 (Table I)", scoreAB)
	}
	if scoreBA != 1 {
		t.Errorf("ionB(B->A) move score = %d, want 1 (Table I)", scoreBA)
	}
}

// TestFigure4FutureOps pins the headline of Fig. 4/Table I: the future-ops
// policy compiles the 4-gate program with a single shuttle (ion 1 to T1)
// where the baseline needs 4.
func TestFigure4FutureOps(t *testing.T) {
	_, cfg, placement := fig4Setup(t)
	res, err := New().CompileMappedContext(t.Context(), fig4Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuttles != 1 {
		t.Fatalf("optimized shuttles = %d, want 1 (Fig. 4)", res.Shuttles)
	}
	for _, op := range res.Ops {
		if op.Kind == machine.OpMove {
			if op.Ion != 1 || op.Trap != 0 || op.Trap2 != 1 {
				t.Errorf("move = %v, want ion 1 T0->T1", op)
			}
		}
	}
	// Cross-check the baseline on the identical input: 4 shuttles.
	resB, err := baseline.New().CompileMappedContext(t.Context(), fig4Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Shuttles != 4 {
		t.Fatalf("baseline shuttles = %d, want 4", resB.Shuttles)
	}
}

// TestFigure5Proximity pins the proximity-window example of Fig. 5: a
// relevant future gate separated from the previous relevant gate by more
// than 6 units of logical time is flagged "distant, low proximity" and
// excluded from the score; with unbounded lookahead it is counted. (This
// implementation measures the gap in dependency layers; the intervening
// gates of Fig. 5 are built as a serial chain so the example carries over
// verbatim — see the MoveScores doc comment.)
func TestFigure5Proximity(t *testing.T) {
	// Program shape of Fig. 5: gate1 MS a,b (active); gate2 MS c,d;
	// gate3 MS a,c (close -> counted); a run of gates involving ions other
	// than a and b; finally MS b,d (distant -> excluded).
	const a, b, c, d, e = 0, 1, 2, 3, 4
	circ := circuit.New("fig5", 6)
	circ.Add2Q("ms", a, b)   // 0: active gate, layer 0
	circ.Add2Q("ms", c, d)   // 1: layer 0
	circ.Add2Q("ms", a, c)   // 2: layer 1, gap 0 from active -> counted
	for i := 0; i < 8; i++ { // 3..10: serial chain on (d,e), layers 1..8
		circ.Add2Q("ms", d, e)
	}
	circ.Add2Q("ms", b, d) // 11: layer 9, gap 9-1-1 = 7 > 6 -> excluded

	g := dag.Build(circ)
	if g.Layer(11) != 9 || g.Layer(2) != 1 {
		t.Fatalf("layer setup wrong: gate2 L%d, gate11 L%d", g.Layer(2), g.Layer(11))
	}

	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 17, CommCapacity: 2}
	// a, e in T0; b, c, d in T1.
	placement := [][]int{{a, e}, {b, c, d, 5}}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &compiler.Context{State: st, Graph: g, Circ: circ, Executed: make([]bool, len(circ.Gates))}
	remaining := make([]int, 0, 11)
	for i := 1; i < len(circ.Gates); i++ {
		remaining = append(remaining, i)
	}

	// Windowed (paper default 6): only gate 2 counts -> scoreAB = 1
	// (partner c is in trapB).
	scoreAB, scoreBA := FutureOpsDirection{}.MoveScores(ctx, a, b, remaining)
	if scoreAB != 1 || scoreBA != 0 {
		t.Errorf("proximity=6 scores = (%d,%d), want (1,0): the distant gate must be excluded", scoreAB, scoreBA)
	}

	// Unbounded: the distant gate (b with d in trapB) also counts.
	scoreAB, scoreBA = FutureOpsDirection{Proximity: -1}.MoveScores(ctx, a, b, remaining)
	if scoreAB != 2 || scoreBA != 0 {
		t.Errorf("unbounded scores = (%d,%d), want (2,0)", scoreAB, scoreBA)
	}
}

// fig6Circuit is the 5-gate partial program of paper Fig. 6b.
func fig6Circuit() *circuit.Circuit {
	c := circuit.New("fig6", 7)
	c.Add2Q("ms", 2, 3) // gA
	c.Add2Q("ms", 4, 0) // gB
	c.Add2Q("ms", 2, 5) // gC
	c.Add2Q("ms", 6, 2) // gD
	c.Add2Q("ms", 1, 4) // gE
	return c
}

// fig6Config reproduces Fig. 6a: capacity 4, T0 = [0 1 2] (EC=1),
// T1 = [3 4 5 6] (EC=0, full).
func fig6Config() (machine.Config, [][]int) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	return cfg, [][]int{{0, 1, 2}, {3, 4, 5, 6}}
}

// TestFigure6Reordering pins Fig. 6f: with opportunistic gate re-ordering
// the partial program compiles with 2 shuttles; without it (baseline) it
// needs 5.
func TestFigure6Reordering(t *testing.T) {
	cfg, placement := fig6Config()
	res, err := New().CompileMappedContext(t.Context(), fig6Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shuttles != 2 {
		t.Fatalf("optimized shuttles = %d, want 2 (Fig. 6f right)", res.Shuttles)
	}
	if res.Reorders != 1 {
		t.Errorf("reorders = %d, want 1 (gB hoisted before gA)", res.Reorders)
	}
	// The first executed gate must be gB (index 1): order = [1 0 ...].
	if res.Order[0] != 1 || res.Order[1] != 0 {
		t.Errorf("final order = %v, want gB before gA", res.Order)
	}
	// Move sequence per Fig. 6f: ion 4 T1->T0, then ion 2 T0->T1.
	var moves []machine.Op
	for _, op := range res.Ops {
		if op.Kind == machine.OpMove {
			moves = append(moves, op)
		}
	}
	if len(moves) != 2 || moves[0].Ion != 4 || moves[0].Trap != 1 || moves[1].Ion != 2 || moves[1].Trap != 0 {
		t.Errorf("moves = %v, want [ion4 T1->T0, ion2 T0->T1]", moves)
	}

	resB, err := baseline.New().CompileMappedContext(t.Context(), fig6Circuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Shuttles != 5 {
		t.Fatalf("baseline shuttles = %d, want 5 (Fig. 6f left)", resB.Shuttles)
	}
}

// TestFigure7Rebalance pins Fig. 7: with T4 full and ECs
// (2,1,4,2,0,5), nearest-neighbor re-balancing evicts to an adjacent trap
// (1 shuttle) where the baseline ships to T0 (4 shuttles).
func TestFigure7Rebalance(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(6), Capacity: 6, CommCapacity: 0}
	placement := [][]int{
		{0, 1, 2, 3},
		{4, 5, 6, 7, 8},
		{9, 10},
		{11, 12, 13, 14},
		{15, 16, 17, 18, 19, 20},
		{21},
	}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 22)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c}
	_, dest, err := NearestNeighborRebalancer{}.Choose(ctx, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Topology.Distance(4, dest); got != 1 {
		t.Errorf("NN rebalance dest = T%d at distance %d, want an adjacent trap", dest, got)
	}
}

// TestFigure7EndToEnd drives the full Fig. 7 scenario through both engines:
// a gate between T3 and T5 ions with T4 blocking. The optimized compiler
// resolves the block with 1 eviction shuttle; the baseline ships the victim
// to T0 (4 shuttles).
func TestFigure7EndToEnd(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(6), Capacity: 6, CommCapacity: 0}
	placement := [][]int{
		{0, 1, 2, 3},
		{4, 5, 6, 7, 8},
		{9, 10},
		{11, 12, 13, 14},
		{15, 16, 17, 18, 19, 20},
		{21},
	}
	mkCircuit := func() *circuit.Circuit {
		c := circuit.New("fig7", 22)
		c.Add2Q("ms", 14, 21) // ion 14 in T3, ion 21 in T5; path crosses full T4
		return c
	}
	resOpt, err := New().CompileMappedContext(t.Context(), mkCircuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := baseline.New().CompileMappedContext(t.Context(), mkCircuit(), cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	if resOpt.Shuttles >= resBase.Shuttles {
		t.Errorf("optimized %d shuttles, baseline %d: NN re-balancing should win", resOpt.Shuttles, resBase.Shuttles)
	}
	if resOpt.Rebalances == 0 || resBase.Rebalances == 0 {
		t.Error("both compilers should have re-balanced T4")
	}
	// Optimized total: 1 eviction hop + 2 routing hops = 3.
	if resOpt.Shuttles != 3 {
		t.Errorf("optimized shuttles = %d, want 3 (1 eviction + 2 route)", resOpt.Shuttles)
	}
	// Baseline: 4 eviction hops (to T0) + 2 routing hops = 6.
	if resBase.Shuttles != 6 {
		t.Errorf("baseline shuttles = %d, want 6 (4 eviction + 2 route)", resBase.Shuttles)
	}
}

// TestMaxScoreIonSelection pins Section III-C2: the evicted ion maximizes
// wd*#gates-in-dest - ws*#gates-in-source, with the 0.49/0.51 tie weights.
func TestMaxScoreIonSelection(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(3), Capacity: 4, CommCapacity: 0}
	// T1 = [2 3 4 5] is blocked; T2 has room (dest, distance 1); T0 full.
	placement := [][]int{{0, 1, 6, 7}, {2, 3, 4, 5}, {8}}
	st, err := machine.NewState(cfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 9)
	c.Add2Q("ms", 3, 8) // ion 3 has a gate in T2 (dest)
	c.Add2Q("ms", 3, 8)
	c.Add2Q("ms", 4, 5) // ion 4 and 5 have gates inside the source trap
	c.Add2Q("ms", 2, 8) // ion 2: one gate in dest...
	c.Add2Q("ms", 2, 4) // ...and one in source -> equal counts, 0.49/0.51
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, len(c.Gates))}
	remaining := []int{0, 1, 2, 3, 4}
	ion, dest, err := NearestNeighborRebalancer{}.Choose(ctx, 1, remaining, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dest != 2 {
		t.Errorf("dest = T%d, want T2 (nearest with capacity)", dest)
	}
	// Scores: ion2: equal counts (1,1) -> 0.49-0.51 = -0.02; ion3: (2,0) ->
	// +1.0; ion4: (0,2) -> -1.0; ion5: (0,1) -> -0.5. Ion 3 wins.
	if ion != 3 {
		t.Errorf("evicted ion = %d, want 3 (max score)", ion)
	}
}

func TestNearestNeighborNoCapacity(t *testing.T) {
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 2, CommCapacity: 0}
	st, err := machine.NewState(cfg, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 4)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c}
	if _, _, err := (NearestNeighborRebalancer{}).Choose(ctx, 0, nil, nil); err == nil {
		t.Fatal("expected no-capacity error")
	}
}

func TestFutureOpsTieFallsBackToExcessCapacity(t *testing.T) {
	// No future gates at all -> scores (0,0) -> baseline EC rule decides.
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 1}
	st, err := machine.NewState(cfg, [][]int{{0}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("x", 4)
	c.Add2Q("ms", 0, 1)
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, 1)}
	ion, dest := FutureOpsDirection{}.Choose(ctx, 0, 0, 1, nil)
	// EC(T0)=3 > EC(T1)=1: baseline moves trap1's ion (ion 1) into T0.
	if ion != 1 || dest != 0 {
		t.Errorf("tie fallback: got ion %d -> T%d, want ion 1 -> T0", ion, dest)
	}
}

func TestPolicyNames(t *testing.T) {
	if got := (FutureOpsDirection{}).Name(); !strings.Contains(got, "proximity=6") {
		t.Errorf("default direction name = %q", got)
	}
	if got := (FutureOpsDirection{Proximity: -1}).Name(); !strings.Contains(got, "-1") {
		t.Errorf("unbounded direction name = %q", got)
	}
	if (OpportunisticReorderer{}).Name() == "" || (NearestNeighborRebalancer{}).Name() == "" {
		t.Error("empty policy names")
	}
}

func TestNewWithOptionsAblations(t *testing.T) {
	full := NewWithOptions(Options{})
	if full.Reorderer == nil {
		t.Error("default must include reorderer")
	}
	noReorder := NewWithOptions(Options{DisableReorder: true})
	if noReorder.Reorderer != nil {
		t.Error("DisableReorder ignored")
	}
	noFuture := NewWithOptions(Options{DisableFutureOps: true})
	if noFuture.Direction.Name() != "excess-capacity" {
		t.Errorf("DisableFutureOps direction = %q", noFuture.Direction.Name())
	}
	noNN := NewWithOptions(Options{DisableNNRebalance: true})
	if noNN.Rebalancer.Name() != "first-fit-from-trap0" {
		t.Errorf("DisableNNRebalance rebalancer = %q", noNN.Rebalancer.Name())
	}
}

// TestReordererSkipsUnsafeCandidates verifies the dependency-safety check:
// a same-layer... (lower-layer) gate whose predecessor is pending must not
// be hoisted.
func TestReordererSkipsUnsafeCandidates(t *testing.T) {
	// gates: 0: ms(0,1) [layer0]; 1: ms(1,2) [layer1, depends on 0];
	// active cursor at a different gate; candidate 1 unsafe until 0 runs.
	c := circuit.New("x", 6)
	c.Add2Q("ms", 0, 1) // 0, layer 0
	c.Add2Q("ms", 1, 2) // 1, layer 1
	c.Add2Q("ms", 3, 4) // 2, layer 0 (independent)
	cfg := machine.Config{Topology: topo.Linear(2), Capacity: 4, CommCapacity: 0}
	st, err := machine.NewState(cfg, [][]int{{0, 1, 3}, {2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &compiler.Context{State: st, Graph: dag.Build(c), Circ: c, Executed: make([]bool, 3)}
	r := OpportunisticReorderer{Direction: FutureOpsDirection{}}
	// Active = gate 1 at cursor 0 in a custom order; gate 1's predecessor
	// (gate 0) is pending, but gate 1 is the *active* gate here. Use active
	// = gate 2 (layer 0) and see that gate 1 (layer 1) is never a candidate
	// regardless of trap states.
	order := []int{2, 1, 0}
	pos := r.Candidate(ctx, order, 0, 1)
	if pos != -1 && order[pos] == 1 {
		t.Error("hoisted a gate with pending predecessors")
	}
}
