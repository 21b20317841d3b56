package dag

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"muzzle/internal/circuit"
)

// fig2Circuit is the 9-gate sample program of paper Fig. 2a.
func fig2Circuit() *circuit.Circuit {
	c := circuit.New("fig2", 6)
	c.Add2Q("ms", 0, 1) // g1
	c.Add2Q("ms", 2, 3) // g2
	c.Add2Q("ms", 2, 0) // g3
	c.Add2Q("ms", 4, 5) // g4
	c.Add2Q("ms", 0, 3) // g5
	c.Add2Q("ms", 2, 5) // g6
	c.Add2Q("ms", 4, 5) // g7
	c.Add2Q("ms", 0, 1) // g8
	c.Add2Q("ms", 2, 3) // g9
	return c
}

// TestFigure2Layers pins the layer assignment shown in paper Fig. 2b:
// L0 = {g1,g2,g4}, L1 = {g3}, L2 = {g5,g6}, L3 = {g7,g8,g9}.
func TestFigure2Layers(t *testing.T) {
	g := Build(fig2Circuit())
	wantLayer := []int{0, 0, 1, 0, 2, 2, 3, 3, 3} // gate index -> layer
	for i, want := range wantLayer {
		if got := g.Layer(i); got != want {
			t.Errorf("gate g%d: layer = %d, want %d", i+1, got, want)
		}
	}
	if g.NumLayers() != 4 {
		t.Errorf("NumLayers = %d, want 4", g.NumLayers())
	}
}

// TestFigure2Dependencies pins the edges discussed in Section II-A: g5 and
// g6 are independent of each other but both depend on g3.
func TestFigure2Dependencies(t *testing.T) {
	g := Build(fig2Circuit())
	const g3, g5, g6 = 2, 4, 5 // zero-based indices
	dependsOn := func(a, b int) bool {
		for _, p := range g.Preds(a) {
			if p == b {
				return true
			}
		}
		return false
	}
	if !dependsOn(g5, g3) {
		t.Error("g5 should depend on g3")
	}
	if !dependsOn(g6, g3) {
		t.Error("g6 should depend on g3")
	}
	if dependsOn(g6, g5) || dependsOn(g5, g6) {
		t.Error("g5 and g6 should be independent")
	}
}

// TestFigure2Order verifies the Fig. 2c order "g2 g1 g4 g3 g5 g6 g8 g9 g7"
// is accepted as a valid execution order.
func TestFigure2Order(t *testing.T) {
	g := Build(fig2Circuit())
	order := []int{1, 0, 3, 2, 4, 5, 7, 8, 6}
	if err := g.ValidOrder(order); err != nil {
		t.Errorf("paper order rejected: %v", err)
	}
}

func TestValidOrderRejections(t *testing.T) {
	g := Build(fig2Circuit())
	if err := g.ValidOrder([]int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if err := g.ValidOrder([]int{0, 0, 1, 2, 3, 4, 5, 6, 7}); err == nil {
		t.Error("duplicate order accepted")
	}
	if err := g.ValidOrder([]int{2, 0, 1, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Error("g3 before g1/g2 accepted")
	}
	if err := g.ValidOrder([]int{0, 1, 2, 3, 4, 5, 6, 7, 99}); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestBarrierCreatesDependency(t *testing.T) {
	c := circuit.New("b", 2)
	c.Add1Q("r", 0)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 1}})
	c.Add1Q("r", 1)
	g := Build(c)
	if g.Layer(2) != 2 {
		t.Errorf("gate after barrier should be layer 2, got %d", g.Layer(2))
	}
}

func TestCanHoist(t *testing.T) {
	g := Build(fig2Circuit())
	executed := make([]bool, g.NumGates())
	// Nothing executed: only layer-0 gates can hoist.
	for i := 0; i < g.NumGates(); i++ {
		want := g.Layer(i) == 0
		if got := g.CanHoist(i, executed); got != want {
			t.Errorf("CanHoist(%d) with nothing executed = %v, want %v", i, got, want)
		}
	}
	// After g1, g2 execute, g3 becomes hoistable.
	executed[0], executed[1] = true, true
	if !g.CanHoist(2, executed) {
		t.Error("g3 should be hoistable after g1,g2")
	}
	if g.CanHoist(4, executed) {
		t.Error("g5 should not be hoistable before g3")
	}
}

func TestSingleQubitChains(t *testing.T) {
	c := circuit.New("chain", 1)
	for i := 0; i < 5; i++ {
		c.Add1Q("r", 0)
	}
	g := Build(c)
	if g.NumLayers() != 5 {
		t.Errorf("serial chain should have 5 layers, got %d", g.NumLayers())
	}
	for i := 0; i < 5; i++ {
		if g.Layer(i) != i {
			t.Errorf("gate %d layer = %d", i, g.Layer(i))
		}
	}
}

func TestEmptyCircuit(t *testing.T) {
	g := Build(circuit.New("empty", 3))
	if g.NumGates() != 0 || g.NumLayers() != 0 {
		t.Fatalf("empty graph: %d gates, %d layers", g.NumGates(), g.NumLayers())
	}
	if err := g.ValidOrder(nil); err != nil {
		t.Errorf("empty order: %v", err)
	}
}

// randomCircuit draws 1Q gates, MS gates, repeats of the previous MS pair
// (either operand order), whose second copy has one predecessor reached
// through both operands and so exercises the edge dedupe, and multi-qubit
// barriers.
func randomCircuit(rng *rand.Rand) *circuit.Circuit {
	n := 3 + rng.Intn(10)
	c := circuit.New("rand", n)
	pa, pb := 0, 1
	for i := 0; i < rng.Intn(80); i++ {
		switch rng.Intn(8) {
		case 0, 1:
			c.Add1Q("r", rng.Intn(n))
		case 2:
			if rng.Intn(2) == 0 {
				pa, pb = pb, pa
			}
			c.Add2Q("ms", pa, pb)
		case 3:
			qs := rng.Perm(n)[:2+rng.Intn(n-1)]
			c.MustAppend(circuit.Gate{Name: "barrier", Qubits: qs})
		default:
			pa, pb = rng.Intn(n), rng.Intn(n)
			for pb == pa {
				pb = rng.Intn(n)
			}
			c.Add2Q("ms", pa, pb)
		}
	}
	return c
}

// naiveGraph is the reference the CSR builder is checked against: a
// map-based builder written for obviousness, not speed.
type naiveGraph struct {
	preds     [][]int
	layer     []int
	numLayers int
}

func buildNaive(c *circuit.Circuit) naiveGraph {
	n := len(c.Gates)
	ng := naiveGraph{preds: make([][]int, n), layer: make([]int, n)}
	last := map[int]int{}
	for i, gate := range c.Gates {
		seen := map[int]bool{}
		for _, q := range gate.Qubits {
			p, ok := last[q]
			if !ok || seen[p] {
				continue
			}
			seen[p] = true
			ng.preds[i] = append(ng.preds[i], p)
			ng.layer[i] = max(ng.layer[i], ng.layer[p]+1)
		}
		for _, q := range gate.Qubits {
			last[q] = i
		}
		ng.numLayers = max(ng.numLayers, ng.layer[i]+1)
	}
	return ng
}

// matchesNaive reports whether g agrees with the naive reference builder on
// every gate's preds (order included) and layer, and on the layer count.
func matchesNaive(c *circuit.Circuit, g *Graph) bool {
	ng := buildNaive(c)
	if g.NumGates() != len(ng.layer) || g.NumLayers() != ng.numLayers {
		return false
	}
	for i := range ng.layer {
		if g.Layer(i) != ng.layer[i] || !slices.Equal(g.Preds(i), ng.preds[i]) {
			return false
		}
	}
	return true
}

func TestRandomCircuitExercisesDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var barriers, repeats int
	for k := 0; k < 40; k++ {
		c := randomCircuit(rng)
		for i, gate := range c.Gates {
			if gate.Name == "barrier" && len(gate.Qubits) > 2 {
				barriers++
			}
			if i == 0 || gate.Name != "ms" {
				continue
			}
			if prev := c.Gates[i-1]; prev.Name == "ms" && gate.Uses(prev.Qubits[0]) && gate.Uses(prev.Qubits[1]) {
				repeats++
			}
		}
		if !matchesNaive(c, Build(c)) {
			t.Fatalf("circuit %d: CSR graph differs from the naive reference", k)
		}
	}
	if barriers == 0 || repeats == 0 {
		t.Errorf("generator drew %d multi-qubit barriers and %d back-to-back MS repeats, want both > 0", barriers, repeats)
	}
}

func TestBarrierNaiveMatch(t *testing.T) {
	c := circuit.New("b", 4)
	c.Add2Q("ms", 0, 1)
	c.Add2Q("ms", 1, 0)
	c.MustAppend(circuit.Gate{Name: "barrier", Qubits: []int{0, 1, 2, 3}})
	c.Add1Q("r", 3)
	c.Add2Q("ms", 2, 0)
	g := Build(c)
	if !matchesNaive(c, g) {
		t.Fatal("CSR graph differs from the naive reference")
	}
	if p := g.Preds(1); len(p) != 1 || p[0] != 0 {
		t.Errorf("repeated MS pair preds = %v, want [0]", p)
	}
	for _, i := range []int{3, 4} {
		if p := g.Preds(i); !slices.Equal(p, []int{2}) {
			t.Errorf("gate %d after the barrier: preds = %v, want [2]", i, p)
		}
	}
}

// Property: program order is always a valid topological order.
func TestQuickProgramOrderValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		g := Build(c)
		order := make([]int, g.NumGates())
		for i := range order {
			order[i] = i
		}
		return g.ValidOrder(order) == nil && matchesNaive(c, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every layer below NumLayers is non-empty, layer(pred) <
// layer(gate), and two gates in the same layer never share a qubit.
func TestQuickLayerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		g := Build(c)
		if !matchesNaive(c, g) {
			return false
		}
		occupied := make([]map[int]bool, g.NumLayers())
		for idx, gate := range c.Gates {
			l := g.Layer(idx)
			if l < 0 || l >= g.NumLayers() {
				return false
			}
			if occupied[l] == nil {
				occupied[l] = map[int]bool{}
			}
			for _, q := range gate.Qubits {
				if occupied[l][q] {
					return false // same-layer qubit conflict
				}
				occupied[l][q] = true
			}
		}
		for _, qs := range occupied {
			if qs == nil {
				return false // empty layer
			}
		}
		for i := 0; i < g.NumGates(); i++ {
			for _, p := range g.Preds(i) {
				if g.Layer(p) >= g.Layer(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
