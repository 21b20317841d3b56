package sweep

import (
	"strings"
	"testing"

	"muzzle"
)

// smallGrid is a fast 3-family x 2-compiler grid used across tests.
func smallGrid() Grid {
	return Grid{
		Name: "test",
		Topologies: []TopologySpec{
			{Family: FamilyLine, Traps: 4},
			{Family: FamilyRing, Traps: 4},
			{Family: FamilyGrid, Rows: 2, Cols: 2},
		},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []CircuitSpec{
			{Kind: CircuitRandom, Qubits: 10, Gates2Q: 30, Seed: 11},
			{Kind: CircuitQFT, Qubits: 8},
		},
	}
}

func TestExpandDeterministicShardList(t *testing.T) {
	exp, err := Expand(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	norm, cells := exp.Grid, exp.Cells
	if len(norm.Compilers) != 2 {
		t.Fatalf("normalized compilers = %v, want the default pair", norm.Compilers)
	}
	if want := 3 * 1 * 1 * 2; len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	wantIDs := []string{
		"L4/cap6-comm2/Random-10q-30g-s11",
		"L4/cap6-comm2/QFT8",
		"R4/cap6-comm2/Random-10q-30g-s11",
		"R4/cap6-comm2/QFT8",
		"G2x2/cap6-comm2/Random-10q-30g-s11",
		"G2x2/cap6-comm2/QFT8",
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.ID != wantIDs[i] {
			t.Errorf("cell %d ID = %q, want %q", i, c.ID, wantIDs[i])
		}
	}
	// Expansion is a pure function of the grid.
	exp2, err := Expand(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	again := exp2.Cells
	for i := range cells {
		if cells[i].ID != again[i].ID {
			t.Fatalf("expansion order not stable at %d: %q vs %q", i, cells[i].ID, again[i].ID)
		}
	}
}

func TestExpandRejectsMalformedGrids(t *testing.T) {
	base := smallGrid()
	cases := []struct {
		name string
		mut  func(*Grid)
		want string
	}{
		{"no topologies", func(g *Grid) { g.Topologies = nil }, "at least one topology"},
		{"no circuits", func(g *Grid) { g.Circuits = nil }, "at least one circuit"},
		{"ring too small", func(g *Grid) { g.Topologies = []TopologySpec{{Family: FamilyRing, Traps: 2}} }, "ring needs at least"},
		{"zero grid", func(g *Grid) { g.Topologies = []TopologySpec{{Family: FamilyGrid, Rows: 0, Cols: 3}} }, "must be positive"},
		{"line zero", func(g *Grid) { g.Topologies = []TopologySpec{{Family: FamilyLine, Traps: 0}} }, "at least 1 trap"},
		{"unknown family", func(g *Grid) { g.Topologies = []TopologySpec{{Family: "torus", Traps: 6}} }, "unknown topology family"},
		{"disconnected custom", func(g *Grid) {
			g.Topologies = []TopologySpec{{Family: FamilyCustom, Traps: 4, Edges: [][2]int{{0, 1}, {2, 3}}}}
		}, "unreachable"},
		{"self-loop custom", func(g *Grid) {
			g.Topologies = []TopologySpec{{Family: FamilyCustom, Traps: 2, Edges: [][2]int{{1, 1}}}}
		}, "self-loop"},
		{"duplicate topology label", func(g *Grid) {
			g.Topologies = []TopologySpec{{Family: FamilyLine, Traps: 4}, {Family: FamilyLine, Traps: 4}}
		}, "appears twice"},
		{"unknown compiler", func(g *Grid) { g.Compilers = []string{"nope"} }, "not registered"},
		{"duplicate compiler", func(g *Grid) { g.Compilers = []string{"baseline", "baseline"} }, "listed twice"},
		{"empty compiler", func(g *Grid) { g.Compilers = []string{""} }, "empty compiler"},
		{"comm >= capacity", func(g *Grid) { g.Capacities = []int{2}; g.CommCapacities = []int{2} }, "communication capacity"},
		{"zero capacity", func(g *Grid) { g.Capacities = []int{0} }, "capacity"},
		{"unknown circuit kind", func(g *Grid) { g.Circuits = []CircuitSpec{{Kind: "ghz"}} }, "unknown circuit kind"},
		{"random too narrow", func(g *Grid) { g.Circuits = []CircuitSpec{{Kind: CircuitRandom, Qubits: 1}} }, "qubits >= 2"},
		{"negative count", func(g *Grid) {
			g.Circuits = []CircuitSpec{{Kind: CircuitRandom, Qubits: 4, Gates2Q: 5, Count: -1}}
		}, "count"},
		{"duplicate circuit", func(g *Grid) {
			g.Circuits = []CircuitSpec{{Kind: CircuitQFT, Qubits: 8}, {Kind: CircuitQFT, Qubits: 8}}
		}, "appears twice"},
	}
	for _, tc := range cases {
		g := base
		tc.mut(&g)
		_, err := Expand(g)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestHashStability(t *testing.T) {
	h1, err := Hash(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	// Normalization: an explicitly-defaulted grid hashes like the implicit
	// one.
	g := smallGrid()
	g.Compilers = []string{muzzle.CompilerBaseline, muzzle.CompilerOptimized}
	h2, err := Hash(g)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("normalized hash differs: %s vs %s", h1, h2)
	}
	g.Capacities = []int{7}
	h3, err := Hash(g)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Errorf("capacity change did not change the hash")
	}
}

func TestPaperCircuitSpec(t *testing.T) {
	spec := CircuitSpec{Kind: CircuitPaper}
	n, err := spec.count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("paper suite = %d circuits, want 5", n)
	}
	if l := spec.instance(0).label; l != "Supremacy" {
		t.Errorf("first paper circuit = %q", l)
	}
}

func TestRandomCountExpansion(t *testing.T) {
	spec := CircuitSpec{Kind: CircuitRandom, Qubits: 8, Gates2Q: 20, Seed: 5, Count: 3}
	n, err := spec.count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count = %d instances, want 3", n)
	}
	want := []string{"Random-8q-20g-s5", "Random-8q-20g-s6", "Random-8q-20g-s7"}
	for i := range n {
		if l := spec.instance(i).label; l != want[i] {
			t.Errorf("instance %d label = %q, want %q", i, l, want[i])
		}
	}
}
