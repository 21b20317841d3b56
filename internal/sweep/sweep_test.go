package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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

// TestRunDeterminism is the sweep determinism property of the issue: the
// same grid (including seeded random circuits) run twice produces
// byte-identical JSON and CSV artifacts.
func TestRunDeterminism(t *testing.T) {
	ctx := context.Background()
	r1, err := Run(ctx, smallGrid(), Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ctx, smallGrid(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var j1, j2, c1, c2 bytes.Buffer
	if err := WriteJSON(&j1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("JSON artifacts differ:\n%s\nvs\n%s", j1.String(), j2.String())
	}
	if err := WriteCSV(&c1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&c2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Errorf("CSV artifacts differ")
	}
	for _, c := range r1.Cells {
		if c.Error != "" {
			t.Errorf("cell %s failed: %s", c.ID, c.Error)
		}
		if len(c.Outcomes) != 2 {
			t.Errorf("cell %s has %d outcomes, want 2", c.ID, len(c.Outcomes))
		}
	}
}

// TestCacheOverlapHits asserts that overlapping cells are free: a second
// run of the same grid against the same shared cache serves every cell
// from the cache.
func TestCacheOverlapHits(t *testing.T) {
	cache, err := muzzle.NewCache(muzzle.CacheConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1, err := Run(ctx, smallGrid(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s := cache.Stats()
	if s.Misses != uint64(len(r1.Cells)) {
		t.Fatalf("first run: %d misses, want %d", s.Misses, len(r1.Cells))
	}
	hitsBefore := s.Hits
	r2, err := Run(ctx, smallGrid(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	s = cache.Stats()
	if got, want := s.Hits-hitsBefore, uint64(len(r2.Cells)); got != want {
		t.Errorf("second run: %d cache hits, want %d (every overlapping cell free)", got, want)
	}
	if s.Misses != uint64(len(r1.Cells)) {
		t.Errorf("second run recompiled: misses grew to %d", s.Misses)
	}
	var j1, j2 bytes.Buffer
	if err := WriteJSON(&j1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("cached run produced a different artifact")
	}
}

func TestRunDirResume(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	executed := 0
	count := func(CellReport) { executed++ }
	r1, err := RunDir(ctx, smallGrid(), dir, Options{OnCell: count})
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(r1.Cells) {
		t.Fatalf("first run executed %d cells, want %d", executed, len(r1.Cells))
	}
	first, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}

	// A full directory resumes without executing anything.
	executed = 0
	if _, err := RunDir(ctx, smallGrid(), dir, Options{OnCell: count}); err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Errorf("resume executed %d cells, want 0", executed)
	}

	// Deleting one cell artifact re-runs exactly that cell, and the
	// reassembled report is byte-identical.
	if err := os.Remove(filepath.Join(dir, "cells", "cell-000003.json")); err != nil {
		t.Fatal(err)
	}
	executed = 0
	if _, err := RunDir(ctx, smallGrid(), dir, Options{OnCell: count}); err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Errorf("partial resume executed %d cells, want 1", executed)
	}
	again, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("resumed report differs from original")
	}

	// A different grid must be rejected, not silently mixed in.
	other := smallGrid()
	other.Circuits = other.Circuits[:1]
	if _, err := RunDir(ctx, other, dir, Options{}); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Errorf("mismatched grid error = %v", err)
	}
}

// A circuit too large for a machine point is a per-cell failure, recorded
// in the report — never a crash, and the rest of the sweep completes.
func TestInfeasibleCellRecorded(t *testing.T) {
	g := Grid{
		Topologies:     []TopologySpec{{Family: FamilyLine, Traps: 2}},
		Capacities:     []int{3},
		CommCapacities: []int{1},
		Circuits: []CircuitSpec{
			{Kind: CircuitRandom, Qubits: 40, Gates2Q: 10, Seed: 1}, // 40 ions into 2x(3-1) slots
			{Kind: CircuitRandom, Qubits: 3, Gates2Q: 4, Seed: 2},
		},
	}
	rep, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures() != 1 {
		t.Fatalf("failures = %d, want 1 (report: %+v)", rep.Failures(), rep.Cells)
	}
	if rep.Cells[0].Error == "" {
		t.Errorf("infeasible cell has no error")
	}
	if rep.Cells[1].Error != "" || len(rep.Cells[1].Outcomes) == 0 {
		t.Errorf("feasible cell should still complete: %+v", rep.Cells[1])
	}
}

// Cells that failed only because the run was canceled are transient and
// must not be persisted as done: a resumed run re-executes them and the
// final report carries no trace of the interruption.
func TestRunDirCanceledCellsResume(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunDir(ctx, smallGrid(), dir, Options{}); err == nil {
		t.Fatal("expected context error from canceled run")
	}
	executed := 0
	rep, err := RunDir(context.Background(), smallGrid(), dir, Options{OnCell: func(CellReport) { executed++ }})
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(rep.Cells) {
		t.Errorf("resume after cancel executed %d cells, want all %d", executed, len(rep.Cells))
	}
	if rep.Failures() != 0 {
		t.Errorf("resumed report still carries %d canceled cells", rep.Failures())
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, smallGrid(), Options{})
	if err == nil {
		t.Fatal("expected context error")
	}
	if rep == nil {
		t.Fatal("canceled run should still return the partial report")
	}
	for _, c := range rep.Cells {
		if c.Error == "" && len(c.Outcomes) == 0 {
			t.Errorf("cell %s neither completed nor marked canceled", c.ID)
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
