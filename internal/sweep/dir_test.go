package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyGrid is a 2-cell grid.
func tinyGrid() Grid {
	return Grid{
		Topologies:     []TopologySpec{{Family: FamilyLine, Traps: 4}},
		Capacities:     []int{6},
		CommCapacities: []int{2},
		Circuits: []CircuitSpec{
			{Kind: CircuitRandom, Qubits: 8, Gates2Q: 20, Seed: 3},
			{Kind: CircuitQFT, Qubits: 6},
		},
	}
}

// fakeReport fabricates a plausible completed report for a cell without
// running the compiler.
func fakeReport(e *Expanded, idx int) CellReport {
	cr := e.Cells[idx].Skeleton()
	cr.Outcomes = []OutcomeSummary{{Compiler: "baseline", Shuttles: 7}}
	return cr
}

// A corrupt, truncated, or mismatched cell artifact must read as "not done"
// — the cell re-runs — never as an open error or a poisoned resume.
func TestOpenDirTreatsCorruptCellsAsMissing(t *testing.T) {
	e, err := Expand(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDir(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Persist(fakeReport(e, i)); err != nil {
			t.Fatal(err)
		}
	}

	// Damage four of the five persisted cells four different ways.
	if err := os.WriteFile(cellPath(dir, 0), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err) // syntactically corrupt
	}
	if err := os.WriteFile(cellPath(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err) // truncated to nothing
	}
	wrong, err := os.ReadFile(cellPath(dir, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cellPath(dir, 2), wrong, 0o644); err != nil {
		t.Fatal(err) // valid JSON, but the wrong cell's report
	}
	if err := os.Remove(cellPath(dir, 4)); err != nil {
		t.Fatal(err) // manifest says done, artifact gone
	}

	d2, err := OpenDir(dir, e)
	if err != nil {
		t.Fatalf("open over damaged cells: %v", err)
	}
	pre := d2.Preloaded()
	if len(pre) != 1 {
		t.Fatalf("preloaded %d cells, want only the intact one", len(pre))
	}
	if _, ok := pre[3]; !ok {
		t.Fatalf("intact cell 3 not preloaded (got %v)", pre)
	}
}

// OpenDir still refuses the errors that must stay fatal: a manifest from a
// different grid or an unknown layout version.
func TestOpenDirRejectsForeignManifest(t *testing.T) {
	e, err := Expand(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDir(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(fakeReport(e, 0)); err != nil {
		t.Fatal(err)
	}

	other := smallGrid()
	other.Capacities = []int{7}
	oe, err := Expand(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, oe); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign-grid open = %v, want a different-grid error", err)
	}
}

// Cell and manifest writes must never leave temp droppings behind — the
// rename either happened or the temp file was removed.
func TestDirWritesLeaveNoTempFiles(t *testing.T) {
	e, err := Expand(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := OpenDir(dir, e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Cells {
		if err := d.Persist(fakeReport(e, i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := &Report{Grid: e.Grid, Cells: []CellReport{fakeReport(e, 0)}}
	if err := d.WriteReports(rep); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{dir, filepath.Join(dir, cellsDir)} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if strings.Contains(ent.Name(), ".tmp-") {
				t.Errorf("temp file %s left behind in %s", ent.Name(), sub)
			}
		}
	}
	if d.DoneCount() != len(e.Cells) {
		t.Fatalf("done = %d, want %d", d.DoneCount(), len(e.Cells))
	}
}
